#include "cap/expect.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "gen/pcap.hpp"

namespace ps::cap {

FrameList canonicalize(FrameList frames) {
  // Lexicographic byte order, spelled out: gcc 12 at -O3 misreads the
  // length arithmetic inside vector's operator< (-Wstringop-overread).
  std::sort(frames.begin(), frames.end(), [](const auto& a, const auto& b) {
    const std::size_t common = std::min(a.size(), b.size());
    const int order = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
    return order != 0 ? order < 0 : a.size() < b.size();
  });
  return frames;
}

void write_canonical_pcap(const std::string& path, const FrameList& frames) {
  gen::PcapWriter writer(path, gen::PcapClock::kSynthetic);
  for (const auto& frame : frames) writer.on_frame(0, frame);
}

ExpectResult expect_frames(const std::string& golden_path, FrameList actual,
                           const std::string& diff_path) {
  ExpectResult result;
  const FrameList expected = canonicalize(gen::read_pcap(golden_path));
  actual = canonicalize(std::move(actual));
  result.expected_count = expected.size();
  result.actual_count = actual.size();

  std::ostringstream msg;
  if (expected.empty()) {
    msg << "golden capture " << golden_path << " is empty or unreadable";
  } else if (expected.size() != actual.size()) {
    msg << "frame count mismatch: golden " << expected.size() << ", actual " << actual.size();
  } else {
    const auto diff = std::mismatch(expected.begin(), expected.end(), actual.begin());
    if (diff.first == expected.end()) {
      result.match = true;
      msg << "match: " << expected.size() << " frames byte-identical";
    } else {
      result.first_mismatch = diff.first - expected.begin();
      msg << "first mismatch at canonical frame " << result.first_mismatch << " (golden "
          << diff.first->size() << " B, actual " << diff.second->size() << " B)";
    }
  }
  result.message = msg.str();

  if (!result.match && !diff_path.empty()) {
    write_canonical_pcap(diff_path, actual);
    result.message += "; actual TX written to " + diff_path;
  }
  return result;
}

}  // namespace ps::cap
