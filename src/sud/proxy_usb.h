// UsbHostProxy: the USB host-controller proxy.
//
// Figure 5 reports *zero* lines of device-class-specific kernel code for the
// USB host class: everything the HCD driver needs — interrupt forwarding,
// interrupt_ack, DMA allocation, MMIO, and the schema check every downcall
// passes first — is provided by the SUD core (SudDeviceContext). The only
// kernel-visible traffic a USB function driver generates in this model is
// input reports, handled by one generic downcall; a report whose usage code
// is out of range never gets here. This class is intentionally as close to
// empty as the paper claims.

#ifndef SUD_SRC_SUD_PROXY_USB_H_
#define SUD_SRC_SUD_PROXY_USB_H_

#include "src/kern/kernel.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"

namespace sud {

class UsbHostProxy {
 public:
  UsbHostProxy(kern::Kernel* kernel, SudDeviceContext* ctx) : kernel_(kernel) {
    ctx->set_downcall_handler([this](UchanMsg& msg, uint16_t /*shard*/, wire::Malform verdict) {
      if (verdict != wire::Malform::kNone) {
        return;  // refused and counted by the context
      }
      if (msg.opcode != kUsbDownKeyEvent) {
        msg.error = static_cast<int32_t>(ErrorCode::kInvalidArgument);
        return;
      }
      kernel_->input().SubmitKey(static_cast<uint8_t>(msg.args[0]));
      msg.error = 0;
    });
  }

 private:
  kern::Kernel* kernel_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_PROXY_USB_H_
