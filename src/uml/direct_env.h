// DirectEnv: the trusted in-kernel driver environment (the Figure 8
// baseline).
//
// Runs the same Driver implementations as SUD-UML, but the way stock Linux
// would: register accesses go straight to the device, DMA memory is
// allocated and mapped directly, interrupts invoke the driver handler from
// the kernel's dispatch path, and subsystem registration is a direct
// function call. No uchans, no filtering, no guard copies — and therefore
// none of SUD's protections, which is the point of the comparison.

#ifndef SUD_SRC_UML_DIRECT_ENV_H_
#define SUD_SRC_UML_DIRECT_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/kern/net_limits.h"
#include "src/sud/dma_space.h"
#include "src/uml/driver_env.h"

namespace sud::uml {

class DirectEnv : public DriverEnv {
 public:
  // `account` names the CPU-model account this environment charges; the
  // Figure 8 harness runs the traffic-generator peer on its own account so
  // the two "machines" don't mix CPU time.
  DirectEnv(kern::Kernel* kernel, hw::PciDevice* device, CpuAccount account = kAccountKernel);
  ~DirectEnv() override;

  // --- DriverEnv --------------------------------------------------------------
  uint64_t Jiffies() override;
  Result<uint32_t> PciConfigRead(uint16_t offset, int width) override;
  Status PciConfigWrite(uint16_t offset, int width, uint32_t value) override;
  Status PciEnableDevice() override;
  Status PciSetMaster() override;
  Result<uint32_t> MmioRead32(int bar, uint64_t offset) override;
  Status MmioWrite32(int bar, uint64_t offset, uint32_t value) override;
  Result<uint8_t> IoRead8(uint16_t port) override;
  Status IoWrite8(uint16_t port, uint8_t value) override;
  Status RequestIoRegion() override { return Status::Ok(); }  // kernel code needs no IOPB
  Result<uint16_t> IoBarBase() override;
  Result<DmaRegion> DmaAllocCoherent(uint64_t bytes) override;
  Result<DmaRegion> DmaAllocCaching(uint64_t bytes) override;
  Result<ByteSpan> DmaView(uint64_t iova, uint64_t len) override;
  // In-kernel: allocates a contiguous vector range and registers one kernel
  // irq per queue, exactly how pci_alloc_irq_vectors + per-vector request_irq
  // behave for a real MSI multi-message device.
  Status RequestQueueIrqs(uint16_t num_queues, std::function<void(uint16_t)> handler) override;
  Status FreeIrq() override;
  Status RegisterNetdev(const uint8_t mac[6], NetDriverOps ops) override;
  Status NetifRx(std::span<const DmaFrag> frags, uint16_t queue = 0) override;
  void NetifCarrierOn() override;
  void NetifCarrierOff() override;
  // In-kernel TX "buffers" are bounce slots, recycled by AcquireTxBounce.
  void FreeTxBuffers(uint16_t, std::span<const int32_t>) override {}
  Status RegisterWifi(uint32_t supported_features, WifiDriverOps ops) override;
  void WifiBssChange(bool associated) override;
  void WifiSetBitrates(const std::vector<uint32_t>& rates) override;
  Status RegisterAudio(AudioDriverOps ops) override;
  void AudioPeriodElapsed() override;
  void SubmitKeyEvent(uint8_t usage_code) override;

  kern::NetDevice* netdev() { return netdev_; }

 private:
  // Adapters bridging kernel subsystem ops to the driver's callbacks.
  class NetAdapter;
  class WifiAdapter;
  class AudioAdapter;

  Result<uint64_t> AcquireTxBounce();  // in-kernel dma_map stand-in

  kern::Kernel* kernel_;
  hw::PciDevice* device_;
  CpuAccount account_;
  std::unique_ptr<DmaSpace> dma_;
  uint8_t vector_ = 0;
  uint16_t irq_vector_count_ = 0;
  bool irq_registered_ = false;

  NetDriverOps net_ops_;
  WifiDriverOps wifi_ops_;
  AudioDriverOps audio_ops_;
  uint32_t wifi_supported_ = 0;
  std::unique_ptr<NetAdapter> net_adapter_;
  std::unique_ptr<WifiAdapter> wifi_adapter_;
  std::unique_ptr<AudioAdapter> audio_adapter_;
  kern::NetDevice* netdev_ = nullptr;
  kern::WirelessDevice* wdev_ = nullptr;
  kern::PcmDevice* pcm_ = nullptr;

  // TX bounce ring modelling dma_map_single of outgoing skbs.
  DmaRegion tx_bounce_{};
  uint32_t tx_bounce_next_ = 0;
  static constexpr uint32_t kTxBounceCount = 64;
  // Sized for the largest frame the stack can hand down (net_limits.h): a
  // jumbo skb must never be silently truncated at the dma_map stand-in.
  static constexpr uint32_t kTxBounceBytes = kern::PoolBufferBytesFor(kern::kJumboMtu);
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_DIRECT_ENV_H_
