// ckpt/ckpt.hpp — umbrella header for the checkpoint/restart subsystem
// (docs/CHECKPOINT.md):
//
//   * crc32.hpp      — CRC-32 integrity primitive
//   * format.hpp     — on-disk layout, typed RestoreError, Fingerprint
//   * serialize.hpp  — ckpt::encode_view / ckpt::decode_view over pk::View
//   * file.hpp       — write_file (rename-commit), FileWriter, FileReader
//                      (validated)
//   * ring.hpp       — generation ring with keep_last pruning + fallback
//   * fault.hpp      — FaultInjector for the corruption-mode tests
//
// The Simulation/DistributedSimulation integration (full-state
// checkpoint(), restore(), async snapshots, the StepGraph "ckpt" phase)
// lives in core/checkpoint.cpp on top of these primitives.
#pragma once

#include "ckpt/crc32.hpp"
#include "ckpt/fault.hpp"
#include "ckpt/file.hpp"
#include "ckpt/format.hpp"
#include "ckpt/ring.hpp"
#include "ckpt/serialize.hpp"
