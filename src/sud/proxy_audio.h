// AudioProxy: the in-kernel sound-card proxy driver (550 lines in Figure 5).
//
// Translates the PCM subsystem's ops into uchan traffic: stream open/close
// as synchronous upcalls, sample writes as asynchronous upcalls over shared
// buffers, and period-elapsed notifications as downcalls from the driver.

#ifndef SUD_SRC_SUD_PROXY_AUDIO_H_
#define SUD_SRC_SUD_PROXY_AUDIO_H_

#include <string>

#include "src/kern/audio.h"
#include "src/kern/kernel.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"
#include "src/sud/wire_schema.h"

namespace sud {

class AudioProxy : public kern::PcmOps {
 public:
  AudioProxy(kern::Kernel* kernel, SudDeviceContext* ctx);

  // kern::PcmOps. Stream open and close are synchronous upcalls: each
  // returns the driver's answer as Uchan::SendSync delivers it.
  Status OpenStream(const kern::PcmConfig& config) override;
  Status CloseStream() override;
  Status WriteSamples(ConstByteSpan samples) override;

  kern::PcmDevice* pcm() { return pcm_; }

  struct Stats {
    uint64_t write_upcalls = 0;
    uint64_t write_dropped = 0;
    uint64_t periods_notified = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void HandleDowncall(UchanMsg& msg, wire::Malform verdict);

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  kern::PcmDevice* pcm_ = nullptr;
  Stats stats_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_PROXY_AUDIO_H_
