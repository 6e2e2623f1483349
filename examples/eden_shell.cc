// eden_shell: a scripted operator console for an Eden installation.
//
// Runs a command script against a live five-node system — the kind of
// operator tooling a real deployment grows. Demonstrates that the entire
// system is drivable through the uniform capability/invocation interface:
// the shell holds nothing but a directory capability and a command table.
//
// Commands:
//   create <name> <type>            create an object, bind it in the directory
//   invoke <name> <op> [args...]    invoke with string arguments
//   move <name> <node>              migrate an object
//   checkpoint <name>               force a checkpoint
//   fail <node> / restart <node>    node failure injection
//   where <name>                    locate an object
//   trace                           the slowest traces so far, each with its
//                                   span tree and critical path
//
//   $ ./eden_shell
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/kernel/eden_system.h"
#include "src/trace/span.h"
#include "src/types/standard_types.h"

using namespace eden;

namespace {

class EdenShell {
 public:
  EdenShell(EdenSystem& system, SpanCollector& spans)
      : system_(system), spans_(spans) {
    directory_ = *system_.node(0).CreateObject("std.directory", Representation{});
  }

  void Execute(const std::string& line) {
    std::printf("eden> %s\n", line.c_str());
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::vector<std::string> args;
    std::string word;
    while (in >> word) {
      args.push_back(word);
    }
    Status status = Dispatch(command, args);
    if (!status.ok()) {
      std::printf("  error: %s\n", status.ToString().c_str());
    }
  }

 private:
  Status Dispatch(const std::string& command, std::vector<std::string>& args) {
    if (command == "create" && args.size() == 2) {
      return Create(args[0], args[1]);
    }
    if (command == "invoke" && args.size() >= 2) {
      return Invoke(args);
    }
    if (command == "move" && args.size() == 2) {
      return Move(args[0], std::stoul(args[1]));
    }
    if (command == "checkpoint" && args.size() == 1) {
      return Checkpoint(args[0]);
    }
    if (command == "fail" && args.size() == 1) {
      system_.node(std::stoul(args[0])).FailNode();
      std::printf("  node%s is down\n", args[0].c_str());
      return OkStatus();
    }
    if (command == "restart" && args.size() == 1) {
      system_.node(std::stoul(args[0])).RestartNode();
      std::printf("  node%s is back\n", args[0].c_str());
      return OkStatus();
    }
    if (command == "where" && args.size() == 1) {
      return Where(args[0]);
    }
    if (command == "trace") {
      spans_.Flush(system_.sim().now());
      std::printf("%s", spans_.DumpSlowTraces().c_str());
      return OkStatus();
    }
    return InvalidArgumentError("unknown command or bad arity: " + command);
  }

  StatusOr<Capability> Lookup(const std::string& name) {
    InvokeResult found = system_.Await(system_.node(0).Invoke(
        directory_, "lookup", InvokeArgs{}.AddString(name)));
    if (!found.ok()) {
      return found.status;
    }
    return found.results.CapabilityAt(0);
  }

  Status Create(const std::string& name, const std::string& type) {
    auto cap = system_.node(next_node_++ % system_.node_count())
                   .CreateObject(type, Representation{});
    if (!cap.ok()) {
      return cap.status();
    }
    InvokeResult bound = system_.Await(system_.node(0).Invoke(
        directory_, "bind", InvokeArgs{}.AddString(name).AddCapability(*cap)));
    if (bound.ok()) {
      std::printf("  created %s as %s\n", name.c_str(),
                  cap->name().ToString().c_str());
    }
    return bound.status;
  }

  Status Invoke(const std::vector<std::string>& args) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Lookup(args[0]));
    InvokeArgs call_args;
    for (size_t i = 2; i < args.size(); i++) {
      call_args.AddString(args[i]);
    }
    InvokeResult result =
        system_.Await(system_.node(0).Invoke(cap, args[1], std::move(call_args)));
    if (result.ok()) {
      std::printf("  ok");
      for (size_t i = 0; i < result.results.data.size(); i++) {
        std::string text = result.results.StringAt(i).value_or("<bytes>");
        bool printable = !text.empty();
        for (char c : text) {
          if (static_cast<unsigned char>(c) < 9) {
            printable = false;
          }
        }
        std::printf(" [%s]", printable ? text.c_str() : "<binary>");
      }
      std::printf("\n");
    }
    return result.status;
  }

  Status Move(const std::string& name, size_t node) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Lookup(name));
    InvokeResult result = system_.Await(system_.node(0).Invoke(
        cap, "move_to", InvokeArgs{}.AddU64(system_.node(node).station())));
    if (result.ok()) {
      std::printf("  %s now lives on node%zu\n", name.c_str(), node);
    }
    return result.status;
  }

  Status Checkpoint(const std::string& name) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Lookup(name));
    InvokeResult result = system_.Await(system_.node(0).Invoke(cap, "checkpoint"));
    if (result.ok()) {
      std::printf("  long-term state recorded\n");
    }
    return result.status;
  }

  Status Where(const std::string& name) {
    EDEN_ASSIGN_OR_RETURN(Capability cap, Lookup(name));
    InvokeResult result = system_.Await(system_.node(0).Invoke(cap, "where"));
    if (!result.ok()) {
      return result.status;
    }
    std::printf("  %s is active on station %llu\n", name.c_str(),
                static_cast<unsigned long long>(result.results.U64At(0).value()));
    return OkStatus();
  }

  EdenSystem& system_;
  Capability directory_;
  SpanCollector& spans_;
  size_t next_node_ = 1;
};

}  // namespace

int main() {
  std::printf("=== eden_shell: scripted operator session ===\n\n");
  SpanCollector spans;  // outlives the system it is attached to
  EdenSystem system;
  RegisterStandardTypes(system);
  system.set_span_collector(&spans);
  for (int i = 0; i < 5; i++) {
    system.AddNode("node" + std::to_string(i));
  }
  EdenShell shell(system, spans);

  const char* script[] = {
      "create hits std.counter",
      "create notes std.data",
      "invoke hits increment",
      "invoke hits increment",
      "invoke hits read",
      "invoke notes put remember_the_demo",
      "invoke notes get",
      "checkpoint notes",
      "move notes 3",
      "invoke notes get",
      "where notes",
      "fail 3",
      "invoke notes get",
      "restart 3",
      "where notes",
      "trace",
  };
  for (const char* line : script) {
    shell.Execute(line);
  }
  std::printf("\nvirtual time elapsed: %.3f ms\n",
              ToMilliseconds(system.sim().now()));
  return 0;
}
