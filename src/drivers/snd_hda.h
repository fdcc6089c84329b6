// SndHdaDriver: the snd-hda-intel-class audio playback driver.
//
// Maintains a DMA sample ring the device drains in real (simulated) time,
// refills it from write upcalls, and reports period-elapsed interrupts back
// to the PCM subsystem — the workload behind Section 4.1's discussion of
// real-time scheduling for audio driver processes.

#ifndef SUD_SRC_DRIVERS_SND_HDA_H_
#define SUD_SRC_DRIVERS_SND_HDA_H_

#include <cstdint>

#include "src/devices/audio_dev.h"
#include "src/uml/driver_env.h"

namespace sud::drivers {

class SndHdaDriver : public uml::Driver {
 public:
  const char* name() const override { return "snd_hda_intel"; }
  Status Probe(uml::DriverEnv& env) override;

  struct Stats {
    uint64_t writes = 0;
    uint64_t bytes_written = 0;
    uint64_t period_irqs = 0;
    uint64_t underrun_irqs = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Status OpenStream(const kern::PcmConfig& config);
  Status CloseStream();
  // Copies the samples into the ring, then returns the pool buffer whether
  // or not the copy succeeded.
  Status Write(uint64_t samples_iova, uint32_t len, int32_t pool_buffer_id);
  Status CopyToRing(uint64_t samples_iova, uint32_t len);
  void IrqHandler();

  uml::DriverEnv* env_ = nullptr;
  DmaRegion ring_{};
  uint32_t ring_bytes_ = 0;
  uint32_t write_pos_ = 0;
  bool stream_open_ = false;
  Stats stats_;
};

}  // namespace sud::drivers

#endif  // SUD_SRC_DRIVERS_SND_HDA_H_
