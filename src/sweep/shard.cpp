#include "sweep/shard.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace aqua::sweep {

namespace {

/// Strict non-negative integer parse; throws on anything else.
std::size_t parse_count(const char* env_name, const char* text) {
  const std::string s(text);
  require(!s.empty(), std::string(env_name) + " must be a number");
  std::size_t value = 0;
  for (const char c : s) {
    require(c >= '0' && c <= '9',
            std::string(env_name) + " must be a non-negative integer, got '" +
                s + "'");
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

}  // namespace

std::string resume_path_from_env() {
  const char* env = std::getenv(kResumeEnv);
  return env != nullptr ? env : "";
}

std::vector<std::string> poisoned_cells_from_env(const std::string& sweep) {
  std::vector<std::string> cells;
  const char* env = std::getenv(kPoisonEnv);
  if (env == nullptr) return cells;
  // "sweep:cell,sweep:cell" — keep only this sweep's cells.
  const std::string spec(env);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t colon = item.find(':');
    if (colon != std::string::npos && item.compare(0, colon, sweep) == 0) {
      cells.push_back(item.substr(colon + 1));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return cells;
}

ShardPlan ShardPlan::from_env() {
  ShardPlan plan;
  if (const char* env = std::getenv(kShardsEnv);
      env != nullptr && env[0] != '\0') {
    plan.shards = parse_count(kShardsEnv, env);
    require(plan.shards >= 1, std::string(kShardsEnv) + " must be >= 1");
  }
  if (const char* env = std::getenv(kShardIdEnv);
      env != nullptr && env[0] != '\0') {
    plan.id = parse_count(kShardIdEnv, env);
  }
  require(plan.id < plan.shards,
          std::string(kShardIdEnv) + " must be < " + kShardsEnv + " (got " +
              std::to_string(plan.id) + " of " +
              std::to_string(plan.shards) + ")");
  return plan;
}

}  // namespace aqua::sweep
