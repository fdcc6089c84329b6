#include "src/hw/machine.h"

#include "src/base/log.h"

namespace sud::hw {

Machine::Machine(Config config) : config_(config) {
  dram_ = std::make_unique<PhysicalMemory>(config_.dram_bytes);
  iommu_ = std::make_unique<Iommu>(config_.iommu_mode, &cpu_, &clock_);
  iommu_->set_interrupt_remapping(config_.interrupt_remapping);
  msi_ = std::make_unique<MsiController>(iommu_.get());
  root_ = std::make_unique<RootComplex>(dram_.get(), iommu_.get(), msi_.get());
}

PcieSwitch& Machine::AddSwitch(const std::string& name) {
  switches_.push_back(std::make_unique<PcieSwitch>(name, root_.get()));
  PcieSwitch* sw = switches_.back().get();
  switch_bus_[sw] = next_bus_++;
  return *sw;
}

Status Machine::AttachDevice(PcieSwitch& sw, PciDevice* device) {
  auto bus_it = switch_bus_.find(&sw);
  if (bus_it == switch_bus_.end()) {
    return Status(ErrorCode::kInvalidArgument, "switch not part of this machine");
  }
  uint8_t bus = bus_it->second;
  uint8_t dev = next_dev_on_bus_[bus]++;
  device->set_address(PciAddress{bus, dev, 0});
  sw.AttachDevice(device);
  AssignBars(device);
  devices_.push_back(device);
  SUD_LOG(kInfo) << "attached " << device->name() << " at " << device->address().ToString();
  return Status::Ok();
}

void Machine::AssignBars(PciDevice* device) {
  for (size_t i = 0; i < device->bars().size(); ++i) {
    const BarDesc& bar = device->bars()[i];
    if (bar.size == 0) {
      continue;
    }
    if (bar.is_io) {
      device->config().set_bar(static_cast<int>(i), next_io_port_);
      for (uint64_t p = 0; p < bar.size; ++p) {
        io_port_map_[static_cast<uint16_t>(next_io_port_ + p)] = {device, next_io_port_};
      }
      next_io_port_ = static_cast<uint16_t>(next_io_port_ + PageAlignUp(bar.size) / 16);
    } else {
      // SUD requires MMIO ranges to be page-aligned so a page mapping never
      // exposes registers of two devices (Section 3.2.1).
      uint64_t size = PageAlignUp(bar.size);
      device->config().set_bar(static_cast<int>(i), next_mmio_window_);
      next_mmio_window_ += size;
    }
  }
}

std::vector<PciDevice*> Machine::devices() const { return devices_; }

PciDevice* Machine::FindDevice(const PciAddress& address) const {
  for (PciDevice* device : devices_) {
    if (device->address() == address) {
      return device;
    }
  }
  return nullptr;
}

PciDevice* Machine::MmioOwner(uint64_t paddr, int* bar_index, uint64_t* offset) const {
  for (PciDevice* device : devices_) {
    for (size_t b = 0; b < device->bars().size(); ++b) {
      const BarDesc& bar = device->bars()[b];
      if (bar.is_io || bar.size == 0) {
        continue;
      }
      uint64_t base = device->config().bar(static_cast<int>(b));
      if (base != 0 && paddr >= base && paddr < base + bar.size) {
        if (bar_index != nullptr) {
          *bar_index = static_cast<int>(b);
        }
        if (offset != nullptr) {
          *offset = paddr - base;
        }
        return device;
      }
    }
  }
  return nullptr;
}

uint32_t Machine::MmioRead32(uint64_t paddr) {
  cpu_.Charge(kAccountKernel, cpu_.costs().mmio_access);
  int bar = 0;
  uint64_t offset = 0;
  PciDevice* device = MmioOwner(paddr, &bar, &offset);
  if (device == nullptr || !device->config().mem_enabled()) {
    return 0xffffffffu;  // master abort
  }
  return device->MmioRead(bar, offset);
}

void Machine::MmioWrite32(uint64_t paddr, uint32_t value) {
  cpu_.Charge(kAccountKernel, cpu_.costs().mmio_access);
  int bar = 0;
  uint64_t offset = 0;
  PciDevice* device = MmioOwner(paddr, &bar, &offset);
  if (device != nullptr && device->config().mem_enabled()) {
    device->MmioWrite(bar, offset, value);
  }
}

uint32_t Machine::ConfigRead(const PciAddress& address, uint16_t offset, int width) {
  PciDevice* device = FindDevice(address);
  if (device == nullptr) {
    return 0xffffffffu;
  }
  return device->config().Read(offset, width);
}

void Machine::ConfigWrite(const PciAddress& address, uint16_t offset, int width, uint32_t value) {
  PciDevice* device = FindDevice(address);
  if (device != nullptr) {
    device->config().Write(offset, width, value);
  }
}

PciDevice* Machine::IoPortOwner(uint16_t port) const {
  auto it = io_port_map_.find(port);
  return it == io_port_map_.end() ? nullptr : it->second.first;
}

uint8_t Machine::IoPortRead(uint16_t port) {
  auto it = io_port_map_.find(port);
  if (it == io_port_map_.end() || !it->second.first->config().io_enabled()) {
    return 0xff;
  }
  return it->second.first->IoRead(static_cast<uint16_t>(port - it->second.second));
}

void Machine::IoPortWrite(uint16_t port, uint8_t value) {
  auto it = io_port_map_.find(port);
  if (it != io_port_map_.end() && it->second.first->config().io_enabled()) {
    it->second.first->IoWrite(static_cast<uint16_t>(port - it->second.second), value);
  }
}

void Machine::TickDevices() {
  for (PciDevice* device : devices_) {
    device->Tick();
  }
}

}  // namespace sud::hw
