// Golden end-to-end gate (DESIGN.md §18): replay each committed corpus
// capture through the full router and byte-compare TX against the
// committed expected pcap. Any mismatch is a real behaviour change —
// either a regression, or an intentional change that must be re-blessed
// with scripts/regen_goldens.sh (which also refreshes the checksum
// manifest). Each corpus runs through both executors: the single-thread
// ModelDriver and the threaded Router (SPSC hand-off, in-place scatter,
// batched doorbells), which share one per-chunk pipeline. These tests
// carry the ctest label "replay" (the CI replay-gate job) on top of tier-1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cap/expect.hpp"
#include "cap/golden.hpp"
#include "common/endian.hpp"
#include "crypto/esp.hpp"
#include "gen/pcap.hpp"

#ifndef PS_TEST_DATA_DIR
#define PS_TEST_DATA_DIR "tests/data"
#endif

namespace ps::cap {
namespace {

constexpr char kRegenHint[] =
    "if this change is intentional, regenerate the corpus with "
    "scripts/regen_goldens.sh and commit the new pcaps + manifest";

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<u8> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Diff pcaps land under the ctest working directory so the nightly job
// can upload them as artifacts on failure.
std::string diff_path_for(Corpus corpus, Executor executor) {
  std::filesystem::create_directories("expect_diffs");
  return std::string("expect_diffs/") + corpus_name(corpus) +
         (executor == Executor::kRouter ? ".router" : "") + ".actual.pcap";
}

void expect_corpus_matches_golden(Corpus corpus, Executor executor = Executor::kModel) {
  const std::string input = corpus_input_path(PS_TEST_DATA_DIR, corpus);
  const std::string golden = corpus_golden_path(PS_TEST_DATA_DIR, corpus);
  ASSERT_TRUE(std::filesystem::exists(input))
      << "missing corpus input " << input << "; " << kRegenHint;
  ASSERT_TRUE(std::filesystem::exists(golden))
      << "missing golden capture " << golden << "; " << kRegenHint;

  FrameList actual = route_corpus(corpus, input, executor);
  EXPECT_EQ(actual.size(), corpus_frame_count(corpus))
      << corpus_name(corpus) << ": router did not forward every corpus frame";

  std::string expected = golden;
  if (corpus == Corpus::kIpsec && executor == Executor::kRouter) {
    // Concurrent workers hand out ESP sequence numbers in a different
    // order on every run: compare both sides renumbered.
    expected = temp_path("ipsec_renumbered_golden.pcap");
    write_canonical_pcap(expected, renumber_esp(gen::read_pcap(golden)));
    actual = renumber_esp(actual);
  }
  const auto result = expect_frames(expected, actual, diff_path_for(corpus, executor));
  EXPECT_TRUE(result.match) << corpus_name(corpus) << ": " << result.message << "; "
                            << kRegenHint;
}

TEST(ExpectGolden, Ipv4ImixReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv4Imix);
}

TEST(ExpectGolden, Ipv6ReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpv6);
}

TEST(ExpectGolden, IpsecReplaysByteIdentical) {
  expect_corpus_matches_golden(Corpus::kIpsec);
}

TEST(ExpectGolden, Ipv4ImixReplaysByteIdenticalThroughRouter) {
  expect_corpus_matches_golden(Corpus::kIpv4Imix, Executor::kRouter);
}

TEST(ExpectGolden, Ipv6ReplaysByteIdenticalThroughRouter) {
  expect_corpus_matches_golden(Corpus::kIpv6, Executor::kRouter);
}

TEST(ExpectGolden, IpsecReplaysByteIdenticalThroughRouter) {
  expect_corpus_matches_golden(Corpus::kIpsec, Executor::kRouter);
}

TEST(ExpectGolden, RenumberEspIgnoresNumberingButNotBytes) {
  const FrameList golden = gen::read_pcap(corpus_golden_path(PS_TEST_DATA_DIR, Corpus::kIpsec));
  ASSERT_EQ(golden.size(), corpus_frame_count(Corpus::kIpsec));
  const auto sa = crypto::SecurityAssociation::make_test_sa(
      0x5151, net::Ipv4Addr(172, 16, 0, 1), net::Ipv4Addr(172, 16, 0, 2));

  // The same packets numbered in reverse — what another worker interleaving
  // produces — renumber to the same frames.
  FrameList reversed;
  for (const auto& frame : golden) {
    auto rx = sa;
    std::vector<u8> inner;
    ASSERT_EQ(crypto::esp_decapsulate(rx, frame, inner), crypto::EspError::kOk);
    const u32 seq = load_be32(frame.data() + sizeof(net::EthernetHeader) +
                              sizeof(net::Ipv4Header) + 4);
    auto renumbered = crypto::esp_encapsulate(
        sa, inner, static_cast<u32>(golden.size()) + 1 - seq);
    std::copy_n(frame.begin(), sizeof(net::EthernetHeader), renumbered.begin());
    reversed.push_back(std::move(renumbered));
  }
  EXPECT_NE(canonicalize(reversed), canonicalize(golden));
  EXPECT_EQ(renumber_esp(reversed), renumber_esp(golden));

  // A frame whose bytes no longer authenticate stays raw and mismatches.
  FrameList tampered = golden;
  tampered[0][tampered[0].size() / 2] ^= 0x01;
  EXPECT_NE(renumber_esp(tampered), renumber_esp(golden));
}

TEST(ExpectGolden, CorpusInputsRegenerateByteIdentical) {
  // The committed inputs must be exactly what write_corpus_input produces
  // today — synthetic clock, frozen seeds. Drift here means a generator
  // change silently rewrote the corpus semantics.
  for (const Corpus corpus : kAllCorpora) {
    const std::string committed = corpus_input_path(PS_TEST_DATA_DIR, corpus);
    ASSERT_TRUE(std::filesystem::exists(committed))
        << "missing corpus input " << committed << "; " << kRegenHint;
    const auto regen = temp_path("regen_in.pcap");
    write_corpus_input(corpus, regen);
    EXPECT_EQ(slurp(regen), slurp(committed))
        << corpus_name(corpus) << " input capture is no longer reproducible; " << kRegenHint;
    std::remove(regen.c_str());
  }
}

TEST(ExpectFrames, CanonicalizeSortsLexicographically) {
  FrameList frames = {{0x02, 0x01}, {0x01, 0xff}, {0x01}};
  const auto canon = canonicalize(frames);
  EXPECT_EQ(canon[0], (std::vector<u8>{0x01}));
  EXPECT_EQ(canon[1], (std::vector<u8>{0x01, 0xff}));
  EXPECT_EQ(canon[2], (std::vector<u8>{0x02, 0x01}));
}

TEST(ExpectFrames, MatchIsOrderInsensitive) {
  // The router guarantees per-flow ordering, not the global interleave:
  // a permuted TX order still matches the golden multiset.
  const auto golden = temp_path("order_golden.pcap");
  FrameList frames = {{0xaa, 0xaa}, {0xbb, 0xbb}, {0xcc, 0xcc}};
  write_canonical_pcap(golden, canonicalize(frames));

  FrameList permuted = {frames[2], frames[0], frames[1]};
  const auto result = expect_frames(golden, permuted);
  EXPECT_TRUE(result.match) << result.message;
  EXPECT_EQ(result.expected_count, 3u);
  std::remove(golden.c_str());
}

TEST(ExpectFrames, MismatchReportsAndWritesDiffPcap) {
  const auto golden = temp_path("diff_golden.pcap");
  const auto diff = temp_path("diff_actual.pcap");
  write_canonical_pcap(golden, {{0x11, 0x11}, {0x22, 0x22}});

  const auto result = expect_frames(golden, {{0x11, 0x11}, {0x33, 0x33}}, diff);
  EXPECT_FALSE(result.match);
  EXPECT_EQ(result.first_mismatch, 1);
  EXPECT_NE(result.message.find("first mismatch"), std::string::npos);
  // The failing actual frames were preserved for artifact upload.
  const auto written = gen::read_pcap(diff);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[1], (std::vector<u8>{0x33, 0x33}));
  std::remove(golden.c_str());
  std::remove(diff.c_str());
}

TEST(ExpectFrames, CountMismatchAndMissingGolden) {
  const auto golden = temp_path("count_golden.pcap");
  write_canonical_pcap(golden, {{0x44, 0x44}});
  const auto short_result = expect_frames(golden, {});
  EXPECT_FALSE(short_result.match);
  EXPECT_NE(short_result.message.find("count mismatch"), std::string::npos);
  std::remove(golden.c_str());

  const auto missing = expect_frames(temp_path("nonexistent_golden.pcap"), {{0x55}});
  EXPECT_FALSE(missing.match);
  EXPECT_NE(missing.message.find("empty or unreadable"), std::string::npos);
}

}  // namespace
}  // namespace ps::cap
