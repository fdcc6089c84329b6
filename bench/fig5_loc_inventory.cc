// Figure 5 reproduction: lines of code per SUD component, counted from this
// source tree and printed next to the paper's numbers.
//
// The paper counts C for a real kernel; this reproduction counts C++ for a
// simulated one, so absolute numbers differ — the comparison is structural:
// which component is big, which is small, and the USB host proxy's zero.
//
// Exit-gated as a trusted-code ratchet: a component with a line budget fails
// the run when it grows past it, and so does the trusted kernel-side total
// (safe-PCI, the four proxies and the wire schema, against the paper's
// 2,800 + 300 + 600 + 550 + 0 = 4,250). Lower a budget whenever a change
// shrinks its component, never raise it.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

int CountLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return 0;
  }
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

int CountComponent(const std::vector<std::string>& files) {
  int total = 0;
  for (const std::string& file : files) {
    total += CountLines(file);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // Source root: the tree this binary was configured from, or argv[1].
  std::string root = std::string(argc > 1 ? argv[1] : SUD_SOURCE_DIR) + "/src/";
  if (!std::ifstream(root + "sud/safe_pci.cc")) {
    std::fprintf(stderr, "cannot locate the src/ tree; pass the repo root as argv[1]\n");
    return 1;
  }

  struct Component {
    const char* name;
    std::vector<std::string> files;
    int paper_loc;   // -1: no counterpart in the paper
    int budget;      // 0: no ratchet
    bool trusted;    // counted in the trusted kernel-side total
  };
  const Component components[] = {
      {"Safe PCI device access module",
       {root + "sud/safe_pci.h", root + "sud/safe_pci.cc", root + "sud/dma_space.h",
        root + "sud/dma_space.cc", root + "sud/shared_pool.h", root + "sud/shared_pool.cc",
        root + "sud/uchan.h", root + "sud/uchan.cc", root + "sud/proto.h"},
       2800, 2337, true},
      // Budget: heading for 800 lines (the paper's proxy is 300).
      {"Ethernet proxy driver",
       {root + "sud/proxy_ethernet.h", root + "sud/proxy_ethernet.cc"}, 300, 965, true},
      {"Wireless proxy driver",
       {root + "sud/proxy_wireless.h", root + "sud/proxy_wireless.cc"}, 600, 0, true},
      {"Audio card proxy driver",
       {root + "sud/proxy_audio.h", root + "sud/proxy_audio.cc"}, 550, 0, true},
      {"USB host proxy driver", {root + "sud/proxy_usb.h"}, 0, 0, true},
      // The registry and validator every downcall runs through, plus the
      // decoders the proxies use (and, for now, driver-side encoders).
      {"Wire schema", {root + "sud/wire_schema.h", root + "sud/wire_schema.cc"}, -1, 835, true},
      {"SUD-UML runtime",
       {root + "uml/uml_runtime.h", root + "uml/uml_runtime.cc", root + "uml/driver_env.h",
        root + "uml/driver_host.h", root + "uml/driver_host.cc"},
       5000, 1192, false},
      // Kernel-side recovery policy: outside the total, since the paper has
      // no counterpart to compare it with.
      {"Driver supervisor", {root + "uml/supervisor.h", root + "uml/supervisor.cc"}, -1, 452,
       false},
  };
  constexpr int kTrustedPaperLoc = 4250;
  constexpr int kTrustedBudget = 4540;

  auto print_row = [](const char* name, int loc, int paper_loc) {
    std::string paper = paper_loc < 0 ? "-" : std::to_string(paper_loc);
    std::printf("%-34s %10d %12s\n", name, loc, paper.c_str());
  };
  auto over = [](const char* name, int loc, int budget) {
    if (budget > 0 && loc > budget) {
      std::fprintf(stderr, "FAIL: %s is %d lines, over its %d-line budget\n", name, loc, budget);
      return 1;
    }
    return 0;
  };
  std::printf("\nFigure 5: lines of code per SUD component (this repo vs the paper)\n");
  std::printf("%-34s %10s %12s\n", "Feature", "this repo", "paper (C)");
  std::printf("%s\n", std::string(58, '-').c_str());
  int over_budget = 0;
  int trusted_total = 0;
  for (const Component& component : components) {
    int loc = CountComponent(component.files);
    print_row(component.name, loc, component.paper_loc);
    over_budget += over(component.name, loc, component.budget);
    trusted_total += component.trusted ? loc : 0;
  }
  std::printf("%s\n", std::string(58, '-').c_str());
  print_row("Trusted kernel-side total", trusted_total, kTrustedPaperLoc);
  over_budget += over("the trusted kernel-side total", trusted_total, kTrustedBudget);
  std::printf("\nNotes: the USB host class needs no device-specific proxy code in either\n");
  std::printf("implementation (interrupt forwarding + DMA + MMIO come from the SUD core);\n");
  std::printf("proxy_usb.h contains only the generic input-report downcall (~15 lines of\n");
  std::printf("logic). Absolute counts differ (C++ simulation vs kernel C); relative\n");
  std::printf("weights match: the safe-PCI core and the UML runtime dominate, proxies\n");
  std::printf("are hundreds of lines each. The trusted total counts what runs in the kernel\n");
  std::printf("on an untrusted driver's behalf: safe-PCI, the proxies and the wire schema.\n");
  return over_budget == 0 ? 0 : 1;
}
