#include "src/kern/skb.h"

#include <new>

#include "src/base/counter.h"

namespace sud::kern {

namespace {

#ifdef SUD_ADDRESS_SANITIZER
constexpr bool kCacheNodes = false;
#else
constexpr bool kCacheNodes = true;
#endif

// Trivially destructible, so it stays usable while other thread-exit
// destructors free skbs; once drained it is closed and passes frees through.
struct NodeList {
  void* nodes[Skb::kCachedNodes];
  size_t count;
  bool closed;
};
thread_local NodeList t_nodes{};

// Drains the thread's list at thread exit; registered by the first node the
// list takes.
struct NodeListDrain {
  ~NodeListDrain() {
    t_nodes.closed = true;
    while (t_nodes.count > 0) {
      ::operator delete(t_nodes.nodes[--t_nodes.count]);
    }
  }
};
thread_local NodeListDrain t_drain;

}  // namespace

void* Skb::operator new(size_t bytes) {
  NodeList& list = t_nodes;
  if (kCacheNodes && bytes == sizeof(Skb) && list.count > 0) {
    return list.nodes[--list.count];
  }
  return ::operator new(bytes);
}

void Skb::operator delete(void* node, size_t bytes) {
  NodeList& list = t_nodes;
  if (kCacheNodes && bytes == sizeof(Skb) && !list.closed && list.count < kCachedNodes) {
    if (list.count == 0) {
      static_cast<void>(&t_drain);
    }
    list.nodes[list.count++] = node;
    return;
  }
  ::operator delete(node);
}

size_t Skb::CachedNodes() { return t_nodes.count; }

}  // namespace sud::kern
