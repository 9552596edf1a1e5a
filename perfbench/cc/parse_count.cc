// parse_count.cc — counts netsim::parse_packet calls in the traced binary.
//
// CMakeLists.txt links perfbench_traced with --wrap on parse_packet's symbol:
// every call the library makes from another object file lands here first.
// (Calls inside packet.cc itself are not counted; the library has none.)
#include "cc/perfbench.h"
#include "netsim/packet.h"

namespace {

// Per thread, so counting costs one plain increment: the traced shard runs
// on the main thread, which is the one parse_calls() is asked from.
thread_local std::uint64_t t_parse_calls = 0;

using ParseResult = liberate::Result<liberate::netsim::PacketView>;

}  // namespace

ParseResult perfbench_real_parse_packet(liberate::BytesView datagram)
    __asm__("__real_" PERFBENCH_PARSE_SYMBOL);
ParseResult perfbench_wrap_parse_packet(liberate::BytesView datagram)
    __asm__("__wrap_" PERFBENCH_PARSE_SYMBOL);

ParseResult perfbench_wrap_parse_packet(liberate::BytesView datagram) {
  ++t_parse_calls;
  return perfbench_real_parse_packet(datagram);
}

std::uint64_t perfbench::parse_calls() {
  return t_parse_calls;
}
