// DriverEnv: the kernel-runtime surface a device driver programs against.
//
// The paper's central reuse claim is that *unmodified* Linux drivers run
// under SUD because SUD-UML reproduces the kernel environment they expect.
// This repo expresses the same claim structurally: every driver in
// src/drivers is written once against DriverEnv, and runs
//
//   * in-kernel, via DirectEnv  — the trusted baseline of Figure 8, with
//     direct register access and direct calls into kernel subsystems; or
//   * in user space, via UmlRuntime — the SUD path, where the same calls
//     become filtered safe-PCI syscalls, uchan downcalls and upcall
//     dispatch.
//
// The method names deliberately shadow their Linux counterparts
// (pci_enable_device, dma_alloc_coherent, request_irq, register_netdev,
// netif_rx, netif_carrier_on, ...) so the drivers read like Figure 2.

#ifndef SUD_SRC_UML_DRIVER_ENV_H_
#define SUD_SRC_UML_DRIVER_ENV_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kern/audio.h"
#include "src/kern/wireless.h"
#include "src/sud/dma_space.h"

namespace sud::uml {

// One transmit fragment of a frame: the staged bytes in DMA-visible memory
// (a shared-pool buffer under SUD, a bounce slot in-kernel) plus the pool
// buffer backing it (-1 in-kernel). An SG driver arms one TX descriptor per
// fragment and must return every pool buffer of the frame once it has
// transmitted. (RX fragments are DmaFrag, from dma_space.h.)
struct TxFrag {
  uint64_t iova = 0;
  uint32_t len = 0;
  int32_t pool_buffer_id = -1;
};

// Callbacks a network driver registers with register_netdev. `xmit`
// receives one frame as a fragment list already in DMA-visible memory, each
// fragment to become one TX descriptor of an EOP-terminated chain; fragments
// with a pool buffer id must be returned with FreeTxBuffers once
// transmitted. `queue` is the TX queue the kernel's flow steering selected
// (always 0 for single-queue drivers).
struct NetDriverOps {
  std::function<Status()> open;       // ndo_open
  std::function<Status()> stop;       // ndo_stop
  std::function<Status(std::span<const TxFrag> frags, uint16_t queue)> xmit;  // ndo_start_xmit
  std::function<Result<std::string>(uint32_t cmd)> ioctl;
  // NETIF_F_SG: the driver maps frag skbs as TX descriptor chains, so `xmit`
  // may see several fragments (at most kern::kMaxChainFrags, each within one
  // staging buffer). When false (ne2k and friends) the kernel side
  // linearizes frag skbs first — the driver only ever sees one fragment.
  bool sg = false;
  // Number of TX/RX queue pairs the driver services (netif_set_real_num_
  // tx_queues): the kernel steers flows across [0, num_queues) and the SUD
  // layer shards the uchan accordingly.
  uint16_t num_queues = 1;
  // Interface MTU the driver services (ndo_change_mtu at registration time):
  // the kernel clamps it to the jumbo maximum and bounds every receive-path
  // length check by it — a standard-MTU interface rejects jumbo lengths.
  uint32_t mtu = 1500;
};

struct WifiDriverOps {
  std::function<Result<std::vector<kern::ScanResult>>()> scan;
  std::function<Status(const std::string& ssid)> associate;
  std::function<void(uint32_t features)> enable_features;  // async notification
};

struct AudioDriverOps {
  std::function<Status(const kern::PcmConfig& config)> open_stream;
  std::function<Status()> close_stream;
  std::function<Status(uint64_t samples_iova, uint32_t len, int32_t pool_buffer_id)> write;
};

class DriverEnv {
 public:
  virtual ~DriverEnv() = default;

  // --- time
  virtual uint64_t Jiffies() = 0;

  // --- PCI configuration space (filtered under SUD)
  virtual Result<uint32_t> PciConfigRead(uint16_t offset, int width) = 0;
  virtual Status PciConfigWrite(uint16_t offset, int width, uint32_t value) = 0;
  // pci_enable_device: sets IO/MEM enable; pci_set_master adds bus mastering.
  virtual Status PciEnableDevice() = 0;
  virtual Status PciSetMaster() = 0;

  // --- device registers
  virtual Result<uint32_t> MmioRead32(int bar, uint64_t offset) = 0;
  virtual Status MmioWrite32(int bar, uint64_t offset, uint32_t value) = 0;
  virtual Result<uint8_t> IoRead8(uint16_t port) = 0;
  virtual Status IoWrite8(uint16_t port, uint8_t value) = 0;
  virtual Status RequestIoRegion() = 0;  // request_region
  // The port base of the device's IO BAR (for drivers using inb/outb).
  virtual Result<uint16_t> IoBarBase() = 0;

  // --- DMA memory (dma_alloc_coherent / dma_caching mmap)
  virtual Result<DmaRegion> DmaAllocCoherent(uint64_t bytes) = 0;
  virtual Result<DmaRegion> DmaAllocCaching(uint64_t bytes) = 0;
  // The driver's view of DMA memory it allocated (virtual address == iova).
  virtual Result<ByteSpan> DmaView(uint64_t iova, uint64_t len) = 0;

  // --- interrupts
  // request_irq for `num_queues` MSI messages (pci_alloc_irq_vectors plus a
  // request_irq per vector): `handler(q)` runs when message q fires. Drivers
  // never acknowledge: under SUD the runtime sends the "interrupt_ack"
  // downcall itself once the handler returns, then polls once more.
  virtual Status RequestQueueIrqs(uint16_t num_queues, std::function<void(uint16_t)> handler) = 0;
  // Single-vector request_irq: a one-queue registration.
  Status RequestIrq(std::function<void()> handler) {
    return RequestQueueIrqs(1, [handler = std::move(handler)](uint16_t) { handler(); });
  }
  // free_irq: no handler call starts once it has returned.
  virtual Status FreeIrq() = 0;

  // --- network subsystem
  virtual Status RegisterNetdev(const uint8_t mac[6], NetDriverOps ops) = 0;
  // netif_rx for one frame as a fragment list in the driver's DMA space —
  // one fragment per descriptor of an EOP chain, a single one for most
  // frames — reassembled kernel-side into ONE skb (guard-copied under SUD).
  // `queue` names the RX queue the frame arrived on (per-queue NAPI array
  // under SUD: each queue batches and flushes independently).
  virtual Status NetifRx(std::span<const DmaFrag> frags, uint16_t queue = 0) = 0;
  virtual void NetifCarrierOn() = 0;   // mirror macros (§3.3)
  virtual void NetifCarrierOff() = 0;
  // Returns transmitted shared-pool buffers (no-op in-kernel): a whole TX
  // reap pass in ONE downcall on queue `queue`'s shard, a single completion
  // as a list of one.
  virtual void FreeTxBuffers(uint16_t queue, std::span<const int32_t> pool_buffer_ids) = 0;

  // --- wireless subsystem
  virtual Status RegisterWifi(uint32_t supported_features, WifiDriverOps ops) = 0;
  virtual void WifiBssChange(bool associated) = 0;
  virtual void WifiSetBitrates(const std::vector<uint32_t>& rates) = 0;

  // --- audio subsystem
  virtual Status RegisterAudio(AudioDriverOps ops) = 0;
  virtual void AudioPeriodElapsed() = 0;

  // --- input (USB HID reports)
  virtual void SubmitKeyEvent(uint8_t usage_code) = 0;
};

// A driver: one per device model, written once, run under either env.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual const char* name() const = 0;
  virtual Status Probe(DriverEnv& env) = 0;
  virtual void Remove(DriverEnv& env) {}
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_DRIVER_ENV_H_
