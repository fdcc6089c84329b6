// WirelessProxy: the in-kernel 802.11 proxy driver (600 lines in Figure 5).
//
// The interesting part is EnableFeatures: the Linux 802.11 stack calls it in
// a non-preemptable context (Section 3.1.1), so the proxy must answer
// *without blocking*. It does so from the mirrored (static) supported
// feature set registered by the driver, and queues an asynchronous upcall
// carrying the newly-enabled features to SUD-UML — exactly the mechanism the
// paper describes. Scan and Associate may sleep and use synchronous,
// interruptable upcalls.

#ifndef SUD_SRC_SUD_PROXY_WIRELESS_H_
#define SUD_SRC_SUD_PROXY_WIRELESS_H_

#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/kern/wireless.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"
#include "src/sud/wire_schema.h"

namespace sud {

class WirelessProxy : public kern::WirelessOps {
 public:
  WirelessProxy(kern::Kernel* kernel, SudDeviceContext* ctx);

  // kern::WirelessOps. Scan and Associate are synchronous upcalls: each
  // returns the driver's answer as Uchan::SendSync delivers it, and Scan
  // refuses a reply whose records the schema does not certify.
  uint32_t EnableFeatures(uint32_t requested) override;
  Result<std::vector<kern::ScanResult>> Scan() override;
  Status Associate(const std::string& ssid) override;

  kern::WirelessDevice* wdev() { return wdev_; }

  struct Stats {
    uint64_t feature_upcalls_queued = 0;
    uint64_t atomic_violations = 0;  // sync upcalls attempted in atomic ctx (must stay 0)
    uint64_t scans = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void HandleDowncall(UchanMsg& msg);

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  kern::WirelessDevice* wdev_ = nullptr;
  uint32_t mirrored_supported_features_ = 0;  // the static mirror (§3.1.1)
  Stats stats_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_PROXY_WIRELESS_H_
