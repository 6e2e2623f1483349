// Invocation parameter and result types (paper section 4.2):
//
//   Invoke(filecapa, "put", "this is a new line") Returns(status)
//
// An invocation carries "optionally a list of data and/or capability
// parameters"; the reply carries status and output parameters. There is no
// shared memory: everything crosses the wire by value.
#ifndef EDEN_SRC_KERNEL_INVOKE_H_
#define EDEN_SRC_KERNEL_INVOKE_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/kernel/capability.h"
#include "src/sim/time.h"

namespace eden {

// Per-invocation options for NodeKernel::Invoke / InvokeContext::Invoke.
// Replaces the old positional `timeout` parameter so new knobs (trace
// labels, metrics classification) do not keep widening the signature.
struct InvokeOptions {
  // End-to-end deadline for the invocation; 0 selects the kernel default
  // (KernelConfig::default_invoke_timeout).
  SimDuration timeout = 0;
  // Free-form label for the invocation's root span (in place of the operation
  // name), for picking one logical request stream out of a busy trace.
  std::string trace_label;
  // Operation class for latency accounting: when set, the completion latency
  // is additionally recorded under kernel.invoke.latency.class.<name> in the
  // invoking node's metrics registry.
  std::string metrics_class;

  static InvokeOptions WithTimeout(SimDuration timeout) {
    InvokeOptions options;
    options.timeout = timeout;
    return options;
  }
};

// Default for the `options` parameter of Invoke. A named constant rather
// than `= {}` deliberately: GCC 12 miscompiles a defaulted (or inline
// temporary) argument with std::string members when the call is part of a
// co_await expression — the temporary is bitwise-relocated into the
// coroutine frame and its SSO string self-pointer dangles. For the same
// reason, coroutine code passing custom options must build them in a named
// local first instead of writing `co_await ctx.Invoke(..., InvokeOptions{...})`.
inline const InvokeOptions kDefaultInvokeOptions{};

// Parameters of an invocation (also used for results).
struct InvokeArgs {
  std::vector<Bytes> data;
  std::vector<Capability> caps;

  InvokeArgs() = default;

  // --- Builder-style helpers --------------------------------------------
  InvokeArgs& AddBytes(Bytes bytes) {
    data.push_back(std::move(bytes));
    return *this;
  }
  InvokeArgs& AddString(std::string_view text) {
    data.push_back(ToBytes(text));
    return *this;
  }
  InvokeArgs& AddU64(uint64_t value);
  InvokeArgs& AddI64(int64_t value) { return AddU64(static_cast<uint64_t>(value)); }
  InvokeArgs& AddCapability(const Capability& cap) {
    caps.push_back(cap);
    return *this;
  }

  // --- Accessors (bounds- and type-checked) ------------------------------
  StatusOr<std::string> StringAt(size_t index) const;
  StatusOr<uint64_t> U64At(size_t index) const;
  StatusOr<int64_t> I64At(size_t index) const;
  StatusOr<Bytes> BytesAt(size_t index) const;
  StatusOr<Capability> CapabilityAt(size_t index) const;

  size_t TotalBytes() const;

  void Encode(BufferWriter& writer) const;
  static StatusOr<InvokeArgs> Decode(BufferReader& reader);
};

// What an operation handler produces and an invoker receives.
struct InvokeResult {
  Status status;
  InvokeArgs results;

  static InvokeResult Ok() { return InvokeResult{OkStatus(), {}}; }
  static InvokeResult Ok(InvokeArgs results) {
    return InvokeResult{OkStatus(), std::move(results)};
  }
  static InvokeResult Error(Status status) {
    return InvokeResult{std::move(status), {}};
  }

  bool ok() const { return status.ok(); }

  void Encode(BufferWriter& writer) const;
  static StatusOr<InvokeResult> Decode(BufferReader& reader);
};

}  // namespace eden

#endif  // EDEN_SRC_KERNEL_INVOKE_H_
