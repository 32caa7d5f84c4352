// R10: the switch CPU runs its task queue in enqueue order, so that order
// must not come from a hash. Iterate the record slab in id order instead.
#include "core/r10_cpu.h"

void Janitor::sweep() {
  for (const auto& entry : pending_) {  // srlint-expect: R10
    cpu_.enqueue(entry.value);
  }
  for (const auto& [key, value] : stale_) cpu_.enqueue(value);  // srlint-expect: R10
  // Slab id order is deterministic whatever the hash: clean.
  for (const int record : records_) {
    cpu_.enqueue(record);
  }
  // Reading a flat map without a sink in the loop is clean.
  int total = 0;
  for (const auto& entry : pending_) total += entry.value;
  cpu_.enqueue(total);
}
