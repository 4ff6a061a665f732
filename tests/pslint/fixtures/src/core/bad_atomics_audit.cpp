// Fixture: atomics-audit must ban bare std::atomic, demand // mc: tags
// on ps::atomic sites, exempt pointer/reference spellings, and honor
// allow comments. Key sync against docs.md: 'fixture.tagged' is
// documented (quiet), 'fixture.ghost_key' is tagged here but absent
// from the doc table (finding), and docs.md's 'fixture.phantom_key' is
// documented but never tagged (finding attributed to docs.md).
#include <atomic>

namespace ps {
template <typename T> using atomic = std::atomic<T>;  // pslint: allow(atomics-audit)
inline void fence_seq_cst() {}                        // pslint: allow(atomics-audit)
}  // namespace ps

std::atomic<int> bare_counter{0};  // finding: bare std::atomic

void bare_fence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);  // finding: bare fence
}

// pslint: allow(atomics-audit) -- fixture: sanctioned low-level site.
std::atomic<int> allowed_bare{0};  // ok: allow comment

ps::atomic<int> untagged{0};  // finding: lacks a contract tag

// mc: fixture.tagged -- documented in docs.md, two lines above is in range
ps::atomic<int> tagged_documented{0};  // ok

// mc: fixture.ghost_key
ps::atomic<int> tagged_undocumented{0};  // key missing from doc table

int observe(ps::atomic<int>* cell, ps::atomic<int>& ref) {  // ok: ptr/ref exempt
  return cell->load(std::memory_order_relaxed) + ref.load(std::memory_order_relaxed);
}

void publish() {
  // mc: fixture.tagged
  ps::fence_seq_cst();  // ok: tagged fence call
}

void publish_untagged() {
  int spacer = 0;
  (void)spacer;
  ps::fence_seq_cst();  // finding: untagged fence call
}

// Site sync: docs.md's row for 'fixture.moved' names core/moved_away.hpp,
// a file that does not tag the key (finding attributed to docs.md).
// mc: fixture.moved
ps::atomic<int> tagged_elsewhere{0};
