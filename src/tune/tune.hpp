// tune/tune.hpp
//
// No-op and read by nothing in the engine: bench/anatomy/step_anatomy.cpp
// calls both functions, and that benchmark stays unedited. The push and
// sort dispatch run from constants (core/push_tuning.hpp,
// sort/dispatch_model.hpp; docs/LAYOUT.md, "Dispatch constants").
#pragma once

namespace vpic::tune {

inline void ensure_initialized() {}

inline void reset_for_testing() {}

}  // namespace vpic::tune
