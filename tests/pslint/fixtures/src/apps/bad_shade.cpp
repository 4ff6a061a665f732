// Fixture for the read-path-lock rule in apps/: the per-packet stages
// (shade_cpu/process_cpu/pre_shade/post_shade) and the master's per-batch
// path (shade and the device-table refresh it starts with) must reach the
// FIB through the epoch-pinned read(); a function off those paths, such as
// a test helper, may keep the ref-counted snapshot().
struct Fib { const int* snapshot(); };
struct Job { Fib* fib; };

void shade_cpu(Job& job) {
  const int* table = job.fib->snapshot();  // FIRES
  (void)table;
}

void process_cpu(Job& job) {
  std::lock_guard guard(job);  // FIRES: lock acquisition per packet chunk
  (void)guard;
}

int shade(Job& job) {
  MutexLock lock(job);  // FIRES: lock acquisition per shading batch
  return refresh(job);
}

int refresh(Job& job) {
  const int* table = job.fib->snapshot();  // FIRES: the master's per-batch refresh
  return table != nullptr;
}

int table_size(Job& job) {
  const int* table = job.fib->snapshot();  // ok: off the data path
  return table != nullptr;
}
