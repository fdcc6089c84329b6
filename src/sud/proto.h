// Wire protocol between proxy drivers (kernel side) and SUD-UML (user side):
// the per-device-class upcall/downcall opcodes of Figure 7.
//
// Marshalling convention: scalars ride in UchanMsg::args, byte payloads in
// inline_data, and bulk data (packets, samples) in shared-pool buffers
// referenced by buffer_id/buffer_len.

#ifndef SUD_SRC_SUD_PROTO_H_
#define SUD_SRC_SUD_PROTO_H_

#include <cstddef>
#include <cstdint>

namespace sud {

// ---- Generic (SUD core) messages ---------------------------------------------
// Upcall opcodes issued by the SUD core itself (proxy drivers define their
// own ranges above kOpDeviceClassBase).
inline constexpr uint32_t kOpInterrupt = 1;  // Figure 7: "interrupt"; args[0]: queue
inline constexpr uint32_t kOpDeviceClassBase = 0x100;

// Downcall opcodes (Figure 7 samples). SudDeviceContext serves the first two
// for every device class.
inline constexpr uint32_t kOpInterruptAck = 1;      // "interrupt_ack"; args[0]: queue
inline constexpr uint32_t kOpRequestRegion = 2;     // "request_region"
inline constexpr uint32_t kOpPciFindCapability = 3; // "pci_find_capability"
inline constexpr uint32_t kOpDownDeviceClassBase = 0x100;

// Upper bound on uchan shards / MSI messages per exported device (the PCI
// multiple-message ceiling is 32; 8 matches the device models).
inline constexpr uint32_t kSudMaxQueues = 8;

// ---- Ethernet class ---------------------------------------------------------
// Queue discipline: with a sharded uchan (one ring pair per NIC queue),
// packet-path messages travel the shard of the queue they belong to — xmit
// upcalls on the TX queue's shard, netif_rx and free-buffer downcalls on the
// RX/TX queue's shard — while control traffic (open/stop/ioctl, register,
// carrier) rides shard 0. Kernel-side handlers trust the *shard* a message
// arrived on, never a queue index the driver marshalled.
//
// Upcalls (kernel -> driver).
inline constexpr uint32_t kEthUpOpen = kOpDeviceClassBase + 0;    // "net_open" (sync)
inline constexpr uint32_t kEthUpStop = kOpDeviceClassBase + 1;    // (sync)
// ONE frame as a fragment list. args[0]: TX queue the kernel steered it to
// (== the shard it rides); buffer_id/buffer_len: the head fragment's pool
// buffer; args[1]: tail count; inline_data: that many (LE32 pool buffer id,
// LE32 len) records, 8 bytes each (empty when the frame fits one buffer).
// The runtime re-validates every fragment — count vs payload vs
// kern::kMaxChainFrags, every id resolvable, every length within one buffer,
// head plus tail within the jumbo maximum — before arming a descriptor.
inline constexpr uint32_t kEthUpXmit = kOpDeviceClassBase + 2;    // (async, shared buffers)
inline constexpr uint32_t kEthUpIoctl = kOpDeviceClassBase + 3;   // "ioctl" (sync)
inline constexpr size_t kXmitFragBytes = 8;
// Downcalls (driver -> kernel).
// args[0]: number of TX/RX queues the driver services; args[1]: interface
// MTU (kernel-clamped; bounds every receive length check); args[2]: feature
// bits (kEthFeatureSg and friends, clamped kernel-side); mac inline.
inline constexpr uint32_t kEthDownRegisterNetdev = kOpDownDeviceClassBase + 0;
// Feature bits for kEthDownRegisterNetdev args[2].
inline constexpr uint64_t kEthFeatureSg = 1ull << 0;  // NETIF_F_SG
// ONE frame as a fragment list, on the RX queue's shard. args[0]/args[1]:
// the head fragment's iova/len; args[2]: tail count; inline_data: that many
// (LE64 iova, LE32 len) records, 12 bytes each (empty for a one-descriptor
// frame). The kernel re-validates the count against the payload and
// kern::kMaxChainFrags, every fragment against the driver's DMA space, and
// head plus tail against the interface's maximum frame, before copying.
inline constexpr uint32_t kEthDownNetifRx = kOpDownDeviceClassBase + 1;  // "netif_rx" (async, buffers)
inline constexpr size_t kNetifRxFragBytes = 12;
inline constexpr uint32_t kEthDownSetCarrier = kOpDownDeviceClassBase + 2;  // args[0]: 0/1 (mirror)
// Unified layout: args[0]: id count, inline_data: that many little-endian
// int32 buffer ids. A single completion is a batch of one; a TX reap pass
// coalesces its whole sweep into one message. (The legacy empty-payload
// single-id layout is gone — one schema covers every free.)
inline constexpr uint32_t kEthDownFreeBuffer = kOpDownDeviceClassBase + 3;
inline constexpr size_t kFreeBufferIdBytes = 4;
// Static cap on one free batch (a reap pass can never legitimately carry
// more ids than this many pool buffers).
inline constexpr size_t kMaxFreeBufferIds = 1024;

// ---- Wireless class ---------------------------------------------------------
inline constexpr uint32_t kWifiUpScan = kOpDeviceClassBase + 16;            // (sync)
inline constexpr uint32_t kWifiUpAssociate = kOpDeviceClassBase + 17;       // (sync, ssid inline)
inline constexpr uint32_t kWifiUpEnableFeatures = kOpDeviceClassBase + 18;  // (async! §3.1.1)
inline constexpr uint32_t kWifiDownRegister = kOpDownDeviceClassBase + 16;  // args[0]: supported features
inline constexpr uint32_t kWifiDownBssChange = kOpDownDeviceClassBase + 17; // "bss_change" args[0]: assoc
inline constexpr uint32_t kWifiDownSetBitrates = kOpDownDeviceClassBase + 18;  // rates inline (mirror)

// ---- Audio class ------------------------------------------------------------
inline constexpr uint32_t kAudioUpOpenStream = kOpDeviceClassBase + 32;   // (sync, PcmConfig in args)
inline constexpr uint32_t kAudioUpCloseStream = kOpDeviceClassBase + 33;  // (sync)
inline constexpr uint32_t kAudioUpWrite = kOpDeviceClassBase + 34;        // (async, shared buffer)
inline constexpr uint32_t kAudioDownRegister = kOpDownDeviceClassBase + 32;
inline constexpr uint32_t kAudioDownPeriodElapsed = kOpDownDeviceClassBase + 33;

// ---- USB host class ---------------------------------------------------------
// Figure 5: the USB host proxy needs no device-class-specific kernel code;
// the only traffic is generic (interrupt forwarding, interrupt_ack) plus
// input reports surfaced by function drivers.
inline constexpr uint32_t kUsbDownKeyEvent = kOpDownDeviceClassBase + 48;  // args[0]: usage code

// Scan-result marshalling for kWifiUpScan replies: each record is
// 6 (bssid) + 1 (channel) + 1 (signal) + 32 (ssid, NUL-padded) bytes.
inline constexpr size_t kWifiScanRecordBytes = 40;
inline constexpr size_t kMaxScanRecords = 64;
inline constexpr size_t kMaxSsidBytes = 32;
// kWifiDownSetBitrates payload: implicit-count LE32 rate records.
inline constexpr size_t kWifiBitrateBytes = 4;
inline constexpr size_t kMaxWifiBitrates = 64;

// Device-class messages defined above (Ethernet 4 up + 4 down, wireless
// 3 + 3, audio 3 + 2, USB 1). Every one must have a wire_schema registry
// entry — wire_schema.cc static_asserts on this count, so adding a message
// here without a schema fails the build. Bump when adding an opcode.
inline constexpr size_t kProtoMessageCount = 20;

}  // namespace sud

#endif  // SUD_SRC_SUD_PROTO_H_
