/// Verify-reproduction: the "model card" — runs every headline claim of
/// EXPERIMENTS.md live (coarse grids, small workloads) and prints PASS /
/// FAIL per claim. Each row shows the paper's value next to the band the
/// row actually checks, so a PASS says exactly what was verified. A
/// downstream user's first stop after building.
///
///   $ ./build/examples/verify_reproduction

#include <iostream>

#include "common/table.hpp"
#include "core/experiments.hpp"
#include "power/chip_model.hpp"
#include "prototype/board_thermal.hpp"
#include "prototype/testboard.hpp"
#include "core/pue.hpp"

namespace {

struct Card {
  aqua::Table table{{"claim", "paper", "checked", "measured", "verdict"}};
  int failures = 0;

  /// `checked` states the band `ok` tests, in the row's units.
  void check(const std::string& claim, const std::string& paper,
             const std::string& checked, const std::string& measured,
             bool ok) {
    table.row().add(claim).add(paper).add(checked).add(measured).add(
        ok ? "PASS" : "FAIL");
    failures += ok ? 0 : 1;
  }
};

}  // namespace

int main() {
  using namespace aqua;
  Card card;
  const GridOptions grid{24, 24, {}};

  // --- stack feasibility boundaries (Figs. 7/8) ---
  {
    const FreqVsChipsData lp =
        frequency_vs_chips(make_low_power_cmp(), 9, 80.0, grid);
    const std::size_t air = lp.max_feasible_chips(CoolingKind::kAir);
    const std::size_t pipe = lp.max_feasible_chips(CoolingKind::kWaterPipe);
    card.check("air dies early (low-power)", "<= 4 chips", "3..5 chips",
               std::to_string(air) + " chips", air >= 3 && air <= 5);
    card.check("water-pipe boundary (low-power)", "7 chips", "== 7 chips",
               std::to_string(pipe) + " chips", pipe == 7);
    card.check("immersion carries 8 low-power chips (Fig. 11 setup)", "yes",
               ">= 8 chips",
               lp.max_feasible_chips(CoolingKind::kWaterImmersion) >= 8
                   ? "yes"
                   : "no",
               lp.max_feasible_chips(CoolingKind::kWaterImmersion) >= 8);

    bool ordered = true;
    for (std::size_t n = 0; n < lp.max_chips; ++n) {
      const auto pipe_g = lp.of(CoolingKind::kWaterPipe).ghz[n];
      const auto oil_g = lp.of(CoolingKind::kMineralOil).ghz[n];
      const auto water_g = lp.of(CoolingKind::kWaterImmersion).ghz[n];
      if (pipe_g && oil_g && *pipe_g > *oil_g) ordered = false;
      if (oil_g && water_g && *oil_g > *water_g) ordered = false;
    }
    card.check("coolant ordering pipe <= oil <= water", "holds",
               "feasible cells, 1..9 chips", ordered ? "holds" : "violated",
               ordered);
  }
  {
    const FreqVsChipsData hf =
        frequency_vs_chips(make_high_frequency_cmp(), 8, 80.0, grid);
    const std::size_t pipe = hf.max_feasible_chips(CoolingKind::kWaterPipe);
    card.check("water-pipe carries 8 high-freq chips (Fig. 13 setup)",
               "yes", ">= 8 chips", pipe >= 8 ? "yes" : "no", pipe >= 8);
  }

  // --- NPB gains (Figs. 10-13, small-scale run) ---
  {
    const NpbData npb = npb_experiment(make_low_power_cmp(), 4,
                                       CoolingKind::kWaterPipe, 80.0,
                                       /*scale=*/0.05, grid);
    const auto mean = npb.mean_relative(CoolingKind::kWaterImmersion);
    const double gain = mean ? (1.0 - *mean) * 100.0 : -1.0;
    card.check("water beats water-pipe on NPB", "up to ~14% (6 chips)",
               "> 2% and < 30% mean",
               format_double(gain, 1) + "% (4 chips, quick run)",
               mean.has_value() && gain > 2.0 && gain < 30.0);
  }

  // --- prototype temperatures (Fig. 4) ---
  {
    const ServerBoardModel board;
    const double air = board.chip_temperature_c(BoardCooling::kForcedAir);
    const double full = board.chip_temperature_c(BoardCooling::kFullImmersion);
    card.check("full immersion ~20 C below air (prototype)", "76 -> 56 C",
               "each within 2 C",
               format_double(air, 1) + " -> " + format_double(full, 1) + " C",
               std::abs(air - 76.0) < 2.0 && std::abs(full - 56.0) < 2.0);
  }

  // --- flip study (Fig. 15) ---
  {
    const auto points = rotation_sweep(make_high_frequency_cmp(), 4,
                                       CoolingOption(CoolingKind::kWaterImmersion),
                                       grid);
    const double gain = points.back().temperature_no_flip_c -
                        points.back().temperature_flip_c;
    card.check("flip lowers 3.6 GHz peak", "~13 C", "> 5 C",
               format_double(gain, 1) + " C", gain > 5.0);
  }

  // --- test-board lifetime (Section 2.2) ---
  {
    TestBoardConfig cfg;
    TestBoardSim sim(cfg, 2019);
    const auto outcomes = sim.run_campaign(200);
    const auto summary = TestBoardSim::summarize(cfg, outcomes);
    double pcie = 0.0;
    double usb = 0.0;
    for (const auto& s : summary) {
      const double rate =
          static_cast<double>(s.failures) / static_cast<double>(s.boards);
      if (s.type == ComponentType::kPcieX4) pcie = rate;
      if (s.type == ComponentType::kUsb) usb = rate;
    }
    card.check("PCIex4 is the weak spot; USB survives", "5/5 vs 0/5",
               "> 0.80 vs < 0.15",
               format_double(pcie, 2) + " vs " + format_double(usb, 2),
               pcie > 0.8 && usb < 0.15);
  }

  // --- PUE (Section 4.4) ---
  {
    const auto pue = facility_comparison(100.0);
    card.check("direct natural water PUE", "~1.00", "< 1.01",
               format_double(pue.back().pue, 3), pue.back().pue < 1.01);
  }

  card.table.print(std::cout);
  if (card.failures == 0) {
    std::cout << "\nall headline claims reproduced.\n";
  } else {
    std::cout << "\n" << card.failures << " claim(s) FAILED.\n";
  }
  return card.failures == 0 ? 0 : 1;
}
