// Machine: the assembled simulated platform.
//
// Owns the clock, DRAM, IOMMU, MSI controller, root complex, switches,
// devices, the IO-port map and the CPU cost model. This is the only object a
// harness needs to construct; the simulated kernel (src/kern) runs "on" a
// Machine the way Linux runs on the paper's Thinkpad X301.

#ifndef SUD_SRC_HW_MACHINE_H_
#define SUD_SRC_HW_MACHINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/cpu_model.h"
#include "src/base/status.h"
#include "src/hw/iommu.h"
#include "src/hw/msi.h"
#include "src/hw/pci_device.h"
#include "src/hw/pcie_fabric.h"
#include "src/hw/phys_mem.h"

namespace sud::hw {

// MMIO windows are assigned downward from here (well above DRAM).
inline constexpr uint64_t kMmioWindowBase = 0xE0000000ull;
// IO-port BARs are assigned upward from here.
inline constexpr uint16_t kIoPortBase = 0xc000;

class Machine {
 public:
  struct Config {
    uint64_t dram_bytes = 64ull * 1024 * 1024;
    IommuMode iommu_mode = IommuMode::kIntelVtd;
    bool interrupt_remapping = false;  // the paper's testbed lacked it (§5.2)
  };

  Machine() : Machine(Config{}) {}
  explicit Machine(Config config);

  SimClock& clock() { return clock_; }
  PhysicalMemory& dram() { return *dram_; }
  Iommu& iommu() { return *iommu_; }
  MsiController& msi() { return *msi_; }
  RootComplex& root() { return *root_; }
  CpuModel& cpu() { return cpu_; }

  // Topology construction. Devices stay owned by the caller (device models
  // are usually members of a harness fixture); the machine assigns the PCI
  // address, attaches the device below the switch and assigns BARs.
  PcieSwitch& AddSwitch(const std::string& name);
  Status AttachDevice(PcieSwitch& sw, PciDevice* device);

  std::vector<PciDevice*> devices() const;
  PciDevice* FindDevice(const PciAddress& address) const;
  const std::vector<std::unique_ptr<PcieSwitch>>& switches() const { return switches_; }

  // --- CPU-initiated accesses (the trusted kernel side; drivers get at
  // these only through the safe-PCI module's mediated surface).
  uint32_t MmioRead32(uint64_t paddr);
  void MmioWrite32(uint64_t paddr, uint32_t value);
  uint32_t ConfigRead(const PciAddress& address, uint16_t offset, int width);
  void ConfigWrite(const PciAddress& address, uint16_t offset, int width, uint32_t value);
  uint8_t IoPortRead(uint16_t port);
  void IoPortWrite(uint16_t port, uint8_t value);

  // Which device owns an IO port / an MMIO address (nullptr if none).
  PciDevice* IoPortOwner(uint16_t port) const;
  PciDevice* MmioOwner(uint64_t paddr, int* bar_index, uint64_t* offset) const;

  // Runs every device's Tick().
  void TickDevices();

 private:
  void AssignBars(PciDevice* device);

  Config config_;
  SimClock clock_;
  CpuModel cpu_;
  std::unique_ptr<PhysicalMemory> dram_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<MsiController> msi_;
  std::unique_ptr<RootComplex> root_;
  std::vector<std::unique_ptr<PcieSwitch>> switches_;
  std::vector<PciDevice*> devices_;

  uint8_t next_bus_ = 1;
  std::map<const PcieSwitch*, uint8_t> switch_bus_;
  std::map<uint8_t, uint8_t> next_dev_on_bus_;
  uint64_t next_mmio_window_ = kMmioWindowBase;
  uint16_t next_io_port_ = kIoPortBase;
  // port -> (device, bar base port)
  std::map<uint16_t, std::pair<PciDevice*, uint16_t>> io_port_map_;
};

}  // namespace sud::hw

#endif  // SUD_SRC_HW_MACHINE_H_
