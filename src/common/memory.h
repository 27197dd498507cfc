// Heap hygiene after construction. A build allocates several times the
// memory of what it returns (stage-1 candidate lists, scratch stores and
// R-trees, per-shard staging), and frees it all before returning. glibc
// keeps freed heap resident unless it sits at the very top of the heap
// and exceeds a trim threshold that grows with the largest block ever
// freed, so a process that builds and then serves would otherwise carry
// the build's scratch in its resident set for its whole life.
#ifndef UVD_COMMON_MEMORY_H_
#define UVD_COMMON_MEMORY_H_

namespace uvd {

/// Hands the allocator's free heap pages back to the operating system
/// (glibc malloc_trim over every arena). Live allocations are untouched.
/// A no-op with other C libraries.
void ReleaseFreeHeapPages();

}  // namespace uvd

#endif  // UVD_COMMON_MEMORY_H_
