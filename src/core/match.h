#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file match.h
/// Detection results and ground truth for evaluation (paper §VI).

namespace vcd::core {

/// \brief One reported copy detection.
struct Match {
  int query_id = 0;
  int64_t start_frame = 0;  ///< first stream frame of the matching candidate
  int64_t end_frame = 0;    ///< last stream frame (the detection position Q.p)
  double start_time = 0.0;  ///< seconds
  double end_time = 0.0;    ///< seconds
  double similarity = 0.0;  ///< estimated sim at detection time
};

/// A match attributed to the stream it occurred on.
struct StreamMatch {
  int stream_id = 0;
  std::string stream_name;
  Match match;
};

/// \brief Where a query's content was actually inserted into the stream.
struct GroundTruthEntry {
  int query_id = 0;
  int64_t begin_frame = 0;  ///< Q.begin
  int64_t end_frame = 0;    ///< Q.end
};

}  // namespace vcd::core
