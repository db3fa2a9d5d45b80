// pk/pk.hpp — umbrella header for the portability layer.
#pragma once

#include "pk/atomic.hpp"
#include "pk/config.hpp"
#include "pk/execution.hpp"
#include "pk/layout.hpp"
#include "pk/parallel.hpp"
#include "pk/prof_hooks.hpp"
#include "pk/reducers.hpp"
#include "pk/scatter_view.hpp"
#include "pk/timer.hpp"
#include "pk/view.hpp"
