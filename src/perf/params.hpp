#pragma once

/// Microarchitectural parameters of the simulated CMP — the C++ rendering
/// of the paper's Table 1 (plus the DRAM timing the cycle counts derive
/// from). One chip is a 4x4 tile mesh: 4 cores (bottom row) + 12 L2 banks;
/// chips stack vertically with one vertical link per tile position.

#include <cstddef>
#include <cstdint>

namespace aqua {

/// Simulated clock cycle count.
using Cycle = std::uint64_t;

/// Table 1 parameters.
struct CmpConfig {
  // Topology.
  std::size_t chips = 1;          ///< stacked chips (3-D integration)
  std::size_t mesh_x = 4;         ///< on-chip mesh columns
  std::size_t mesh_y = 4;         ///< on-chip mesh rows
  std::size_t cores_per_chip = 4; ///< bottom tile row
  std::size_t l2_banks_per_chip = 12;

  // Caches.
  std::size_t line_bytes = 64;
  std::size_t l1_bytes = 128 * 1024;  ///< L1 D-cache (Table 1: 32/128 KiB I/D)
  std::size_t l1_assoc = 8;
  Cycle l1_latency = 1;
  // Table 1 lists "L2 cache bank size 12 MiB" for the 12-bank chip; we read
  // that as 12 MiB of L2 per chip, i.e. 1 MiB per bank (the Xeon-class LLC
  // slice size), distributed-shared across all chips.
  std::size_t l2_bank_bytes = 1024 * 1024;
  std::size_t l2_assoc = 8;
  Cycle l2_latency = 6;

  // Memory: Table 1 lists 160 cycles at the low-power chip's 2.0 GHz
  // maximum, i.e. a frequency-independent 80 ns DRAM access. One memory
  // controller per chip, pipelined at `memory_service_ns` per request.
  double memory_latency_ns = 80.0;
  double memory_service_ns = 25.0;

  // NoC (Table 1 bottom): [RC][VSA][ST/LT] pipeline, 5-flit VC buffers,
  // 3 VCs (one per message class), 1-flit control / 5-flit data packets.
  Cycle router_pipeline = 3;  ///< cycles from head arrival to link traversal
  Cycle link_latency = 1;
  std::size_t vc_buffer_flits = 5;
  std::size_t num_vcs = 3;
  std::size_t control_packet_flits = 1;
  std::size_t data_packet_flits = 5;

  [[nodiscard]] std::size_t tiles_per_chip() const { return mesh_x * mesh_y; }
  [[nodiscard]] std::size_t total_tiles() const {
    return tiles_per_chip() * chips;
  }
  [[nodiscard]] std::size_t total_cores() const {
    return cores_per_chip * chips;
  }
  [[nodiscard]] std::size_t total_l2_banks() const {
    return l2_banks_per_chip * chips;
  }
};

/// Flat tile id across the whole stack: chip * 16 + (y * mesh_x + x).
using NodeId = std::uint32_t;

/// Cache-line address (already shifted right by log2(line_bytes)).
using LineAddr = std::uint64_t;

/// Tile index helpers.
struct TileCoord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;  ///< chip index
};

/// Converts between flat node ids and mesh coordinates.
TileCoord tile_coord(const CmpConfig& cfg, NodeId id);
NodeId tile_id(const CmpConfig& cfg, TileCoord c);

/// Tile of the c-th core on chip z. Cores occupy the bottom mesh row
/// (y == 0), matching the floorplan in floorplan/builders.cpp.
NodeId core_tile(const CmpConfig& cfg, std::size_t chip, std::size_t core);

/// Tile of the b-th L2 bank on chip z (rows y >= 1).
NodeId l2_tile(const CmpConfig& cfg, std::size_t chip, std::size_t bank);

/// Home L2 bank (as a tile id) of a line: lines interleave across every
/// bank of every chip, so the L2 is one distributed shared cache.
NodeId home_tile(const CmpConfig& cfg, LineAddr line);

}  // namespace aqua
