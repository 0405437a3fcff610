#include "objsim/appkit.h"

namespace tesla::objsim {
namespace {

// Small deterministic work unit standing in for rasterisation.
// The LCG multiply wraps, so it runs in uint64_t, where wraparound is
// defined; the result is reinterpreted as signed.
int64_t DrawWork(int64_t seed) {
  uint64_t x = static_cast<uint64_t>(seed) | 1;
  for (int i = 0; i < 8; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return static_cast<int64_t>(x);
}

}  // namespace

AppKit::AppKit(ObjcRuntime& runtime, AppKitConfig config)
    : runtime_(runtime), config_(config) {
  context_class_ = runtime_.DefineClass("NSGraphicsContext");
  cursor_class_ = runtime_.DefineClass("NSCursor");
  view_class_ = runtime_.DefineClass("NSView");
  cell_class_ = runtime_.DefineClass("NSCell");
  runloop_class_ = runtime_.DefineClass("NSRunLoop");

  // --- graphics context methods ---
  runtime_.AddMethod(context_class_, "saveGraphicsState",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       gc->stack.push_back(gc->stack.back());
                       gc->save_count++;
                       gc->ops += 4;  // save is comparatively expensive (§3.5.3)
                       return int64_t{0};
                     });
  runtime_.AddMethod(context_class_, "restoreGraphicsState",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       if (gc->stack.size() > 1) {
                         gc->stack.pop_back();
                       }
                       gc->restore_count++;
                       gc->ops += 4;
                       return int64_t{0};
                     });
  // Non-LIFO restore: restore directly to stack depth args[0].
  runtime_.AddMethod(context_class_, "restoreGraphicsStateToDepth",
                     [this](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       size_t depth = args.empty() ? 1 : static_cast<size_t>(args[0]);
                       if (depth < 1 || depth > gc->stack.size()) {
                         return int64_t{-1};
                       }
                       if (config_.backend_non_lifo_bug && depth != gc->stack.size() - 1) {
                         // §3.5.3's second bug: the new back end cannot save
                         // and restore graphics states in non-LIFO order.
                         gc->non_lifo_failures++;
                         return int64_t{-1};
                       }
                       gc->stack.resize(depth);
                       gc->restore_count++;
                       return int64_t{0};
                     });
  auto simple_op = [](int64_t cost) {
    return [cost](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
      auto* gc = static_cast<GraphicsContext*>(self);
      gc->ops += static_cast<uint64_t>(cost);
      return DrawWork(static_cast<int64_t>(gc->ops) + (args.empty() ? 0 : args[0]));
    };
  };
  runtime_.AddMethod(context_class_, "setColor",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       gc->stack.back().color = args.empty() ? 0 : args[0];
                       gc->ops++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(context_class_, "setTransform",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       gc->stack.back().transform = args.empty() ? 1 : args[0];
                       gc->ops++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(context_class_, "moveTo",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       auto* gc = static_cast<GraphicsContext*>(self);
                       if (args.size() >= 2) {
                         gc->stack.back().position_x = args[0];
                         gc->stack.back().position_y = args[1];
                       }
                       gc->ops++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(context_class_, "lineTo", simple_op(1));
  runtime_.AddMethod(context_class_, "strokeLine", simple_op(2));
  runtime_.AddMethod(context_class_, "fillRect", simple_op(3));

  // --- cursor methods ---
  runtime_.AddMethod(cursor_class_, "push",
                     [this](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       cursor_stack_.push_back(static_cast<Cursor*>(self));
                       cursor_pushes_++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(cursor_class_, "pop",
                     [this](ObjcRuntime&, ObjcObject*, std::span<const int64_t>) {
                       if (!cursor_stack_.empty()) {
                         cursor_stack_.pop_back();
                       }
                       cursor_pops_++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(cursor_class_, "set",
                     [](ObjcRuntime&, ObjcObject*, std::span<const int64_t>) {
                       return int64_t{0};
                     });

  // --- view methods ---
  runtime_.AddMethod(view_class_, "mouseEntered",
                     [this](ObjcRuntime& rt, ObjcObject* self, std::span<const int64_t>) {
                       auto* view = static_cast<View*>(self);
                       view->mouse_inside = true;
                       if (view->cursor != nullptr) {
                         rt.MsgSend(view->cursor, "push");
                       }
                       return int64_t{0};
                     });
  runtime_.AddMethod(view_class_, "mouseExited",
                     [this](ObjcRuntime& rt, ObjcObject* self, std::span<const int64_t>) {
                       auto* view = static_cast<View*>(self);
                       view->mouse_inside = false;
                       if (view->cursor != nullptr) {
                         rt.MsgSend(view->cursor, "pop");
                       }
                       return int64_t{0};
                     });
  runtime_.AddMethod(view_class_, "setNeedsDisplay",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       static_cast<View*>(self)->needs_display = true;
                       return int64_t{0};
                     });
  runtime_.AddMethod(
      view_class_, "drawRect",
      [this](ObjcRuntime& rt, ObjcObject* self, std::span<const int64_t>) {
        auto* view = static_cast<View*>(self);
        rt.MsgSend(context_, "saveGraphicsState");
        // Views delegate drawing to cells (§3.5.3): "many views delegate
        // drawing to 'cells' ... provided by another object".
        for (Cell* cell : view->cells) {
          rt.MsgSend(cell, "drawWithFrame_inView", {static_cast<int64_t>(view->id)});
        }
        rt.MsgSend(context_, "restoreGraphicsState");
        view->needs_display = false;
        return int64_t{0};
      });
  runtime_.AddMethod(view_class_, "addTrackingRect",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       auto* view = static_cast<View*>(self);
                       if (args.size() >= 4) {
                         view->tracking_rect = Rect{args[0], args[1], args[2], args[3]};
                         view->has_tracking_rect = true;
                       }
                       return int64_t{0};
                     });
  runtime_.AddMethod(view_class_, "removeTrackingRect",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       static_cast<View*>(self)->has_tracking_rect = false;
                       return int64_t{0};
                     });

  // --- cell methods ---
  runtime_.AddMethod(
      cell_class_, "drawWithFrame_inView",
      [this](ObjcRuntime& rt, ObjcObject* self, std::span<const int64_t> args) {
        auto* cell = static_cast<Cell*>(self);
        cell->draws++;
        // Each cell explicitly sets colour and position, then strokes — the
        // traffic pattern whose save/restore redundancy §3.5.3 observes.
        rt.MsgSend(context_, "setColor", {cell->color});
        rt.MsgSend(context_, "moveTo", {static_cast<int64_t>(cell->id), 0});
        rt.MsgSend(context_, "lineTo", {static_cast<int64_t>(cell->id), 8});
        rt.MsgSend(context_, "strokeLine");
        // A rotating sample of auxiliary methods pads realistic traffic.
        if (!filler_selectors_.empty()) {
          for (int i = 0; i < 3; i++) {
            const std::string& selector =
                filler_selectors_[(cell->draws + i) % filler_selectors_.size()];
            rt.MsgSend(cell, selector, {static_cast<int64_t>(cell->state)});
          }
        }
        return int64_t{0};
      });
  runtime_.AddMethod(cell_class_, "setState",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                       static_cast<Cell*>(self)->state = args.empty() ? 0 : args[0];
                       return int64_t{0};
                     });
  runtime_.AddMethod(cell_class_, "highlight",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       static_cast<Cell*>(self)->color ^= 1;
                       return int64_t{0};
                     });

  // Filler methods: the bulk of the ~110 selectors fig. 8 instruments.
  for (int i = 0; i < config_.filler_method_count; i++) {
    std::string selector = "cellOp" + std::to_string(i);
    filler_selectors_.push_back(selector);
    runtime_.AddMethod(cell_class_, selector,
                       [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t> args) {
                         auto* cell = static_cast<Cell*>(self);
                         return DrawWork(cell->state + (args.empty() ? 0 : args[0]));
                       });
  }

  // --- run loop ---
  runtime_.AddMethod(runloop_class_, "beginIteration",
                     [](ObjcRuntime&, ObjcObject* self, std::span<const int64_t>) {
                       static_cast<RunLoopObj*>(self)->iterations++;
                       return int64_t{0};
                     });
  runtime_.AddMethod(runloop_class_, "endIteration",
                     [](ObjcRuntime&, ObjcObject*, std::span<const int64_t>) {
                       return int64_t{0};
                     });

  // --- object graph ---
  context_ = runtime_.CreateObject<GraphicsContext>(context_class_);
  run_loop_ = runtime_.CreateObject<RunLoopObj>(runloop_class_);
  for (int v = 0; v < config_.view_count; v++) {
    View* view = runtime_.CreateObject<View>(view_class_);
    view->frame = Rect{v * 100, 0, 100, 100};
    Cursor* cursor = runtime_.CreateObject<Cursor>(cursor_class_);
    cursor->shape = v;
    cursors_.push_back(cursor);
    view->cursor = cursor;
    runtime_.MsgSend(view, "addTrackingRect", {v * 100, 0, 100, 100});
    for (int c = 0; c < config_.cells_per_view; c++) {
      Cell* cell = runtime_.CreateObject<Cell>(cell_class_);
      cell->color = c;
      view->cells.push_back(cell);
    }
    views_.push_back(view);
  }
}

std::vector<std::string> AppKit::InstrumentedSelectors() const {
  std::vector<std::string> selectors = {
      "saveGraphicsState", "restoreGraphicsState", "restoreGraphicsStateToDepth",
      "setColor",          "setTransform",         "moveTo",
      "lineTo",            "strokeLine",           "fillRect",
      "push",              "pop",                  "set",
      "mouseEntered",      "mouseExited",          "setNeedsDisplay",
      "drawRect",          "addTrackingRect",      "removeTrackingRect",
      "drawWithFrame_inView", "setState",          "highlight",
  };
  selectors.insert(selectors.end(), filler_selectors_.begin(), filler_selectors_.end());
  return selectors;
}

void AppKit::DeliverEvent(const UiEvent& event) {
  switch (event.kind) {
    case UiEvent::Kind::kMouseMove: {
      for (View* view : views_) {
        bool inside = view->has_tracking_rect && view->tracking_rect.Contains(event.x, event.y);
        if (inside && !view->mouse_inside) {
          crossings_++;
          runtime_.MsgSend(view, "mouseEntered");
        } else if (!inside && view->mouse_inside) {
          // §3.5.3: "events invalidating cursor tracking rectangles were
          // being delivered after events that inspected those rectangles" —
          // with the bug, every third exit notification is lost.
          if (config_.cursor_unbalanced_bug && crossings_ % 3 == 0) {
            view->mouse_inside = false;  // the view loses track silently
          } else {
            runtime_.MsgSend(view, "mouseExited");
          }
        }
      }
      break;
    }
    case UiEvent::Kind::kClick: {
      for (View* view : views_) {
        if (view->frame.Contains(event.x, event.y)) {
          runtime_.MsgSend(view, "setNeedsDisplay");
        }
      }
      break;
    }
    case UiEvent::Kind::kExposePartial: {
      size_t dirty = 0;
      for (View* view : views_) {
        if (view->frame.Contains(event.x, event.y) ||
            view->frame.Contains(event.x + 100, event.y)) {
          runtime_.MsgSend(view, "setNeedsDisplay");
          if (++dirty == 2) {
            break;
          }
        }
      }
      break;
    }
    case UiEvent::Kind::kExposeFull: {
      for (View* view : views_) {
        runtime_.MsgSend(view, "setNeedsDisplay");
      }
      break;
    }
  }
}

void AppKit::RedrawDirtyViews() {
  for (View* view : views_) {
    if (view->needs_display) {
      runtime_.MsgSend(view, "drawRect");
    }
  }
}

uint64_t AppKit::RunLoopIteration(std::span<const UiEvent> events) {
  uint64_t ops_before = context_->ops;
  runtime_.MsgSend(run_loop_, "beginIteration");
  for (const UiEvent& event : events) {
    DeliverEvent(event);
  }
  RedrawDirtyViews();
  if (iteration_site) {
    iteration_site();
  }
  runtime_.MsgSend(run_loop_, "endIteration");
  return context_->ops - ops_before;
}

}  // namespace tesla::objsim
