#include "trace/replay.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <type_traits>

namespace loki::trace {

namespace {

constexpr const char* kReplayHeader = "t_s,task,tier";

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields(1);
  for (char c : line) {
    if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

/// std::stod and std::stoi stop at the first character they cannot read;
/// the number must use up the whole field, or "0.5abc" would load as 0.5.
template <typename T>
T parse_field(const std::string& field, const std::string& line) {
  try {
    std::size_t pos = 0;
    T v{};
    if constexpr (std::is_same_v<T, double>) {
      v = std::stod(field, &pos);
    } else {
      v = std::stoi(field, &pos);
    }
    if (pos == field.size()) return v;
  } catch (const std::exception&) {
  }
  throw std::runtime_error("load_replay_csv: non-numeric field \"" + field +
                           "\" in row: " + line);
}

}  // namespace

QueryReplay load_replay_csv(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_replay_csv: cannot open " + path);
  std::string line;
  if (!std::getline(f, line)) {
    throw std::runtime_error("load_replay_csv: empty file " + path);
  }
  if (line != kReplayHeader) {
    throw std::runtime_error(std::string("load_replay_csv: expected header ") +
                             kReplayHeader + ", got: " + line);
  }
  QueryReplay replay;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_fields(line);
    if (fields.size() != 3) {
      throw std::runtime_error("load_replay_csv: expected 3 fields: " + line);
    }
    ReplayRow r;
    r.t_s = parse_field<double>(fields[0], line);
    r.task = parse_field<int>(fields[1], line);
    r.tier = parse_field<int>(fields[2], line);
    if (r.t_s < 0.0 || !std::isfinite(r.t_s)) {
      throw std::runtime_error("load_replay_csv: bad timestamp: " + line);
    }
    if (r.task < 0) {
      throw std::runtime_error("load_replay_csv: negative task: " + line);
    }
    if (r.tier < 0 || r.tier >= 8) {
      throw std::runtime_error("load_replay_csv: tier out of range: " + line);
    }
    if (!replay.rows.empty() && r.t_s < replay.rows.back().t_s) {
      throw std::runtime_error("load_replay_csv: timestamps not sorted: " +
                               line);
    }
    replay.rows.push_back(r);
  }
  return replay;
}

DemandCurve replay_demand_curve(const QueryReplay& replay, double interval_s) {
  if (interval_s <= 0.0) {
    throw std::runtime_error("replay_demand_curve: interval must be > 0");
  }
  DemandCurve curve;
  curve.interval_s = interval_s;
  const std::size_t bins =
      replay.empty()
          ? 0
          : static_cast<std::size_t>(replay.duration_s() / interval_s) + 1;
  curve.qps.assign(bins, 0.0);
  for (const ReplayRow& r : replay.rows) {
    const std::size_t b = static_cast<std::size_t>(r.t_s / interval_s);
    curve.qps[b < bins ? b : bins - 1] += 1.0 / interval_s;
  }
  return curve;
}

}  // namespace loki::trace
