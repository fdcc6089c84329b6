#include "src/kern/process.h"

namespace sud::kern {

void Process::GrantIoPorts(uint16_t first, uint16_t count) {
  for (uint32_t p = first; p < static_cast<uint32_t>(first) + count && p < 65536; ++p) {
    iopb_.set(p);
  }
}

void Process::RevokeIoPorts(uint16_t first, uint16_t count) {
  for (uint32_t p = first; p < static_cast<uint32_t>(first) + count && p < 65536; ++p) {
    iopb_.reset(p);
  }
}

Status Process::ChargeMemory(uint64_t bytes) {
  if (bytes > rlimits_.memory_bytes || memory_used_ > rlimits_.memory_bytes - bytes) {
    return Status(ErrorCode::kExhausted, name_ + ": rlimit memory exceeded");
  }
  memory_used_ += bytes;
  return Status::Ok();
}

void Process::UncchargeMemory(uint64_t bytes) {
  memory_used_ = bytes > memory_used_ ? 0 : memory_used_ - bytes;
}

Process& ProcessTable::Spawn(const std::string& name, Uid uid) {
  Pid pid = next_pid_++;
  auto process = std::make_unique<Process>(pid, uid, name);
  Process& ref = *process;
  processes_[pid] = std::move(process);
  return ref;
}

Status ProcessTable::Kill(Pid pid) {
  Process* process = Find(pid);
  if (process == nullptr) {
    return Status(ErrorCode::kNotFound, "no such pid");
  }
  process->MarkDead();
  return Status::Ok();
}

Process* ProcessTable::Find(Pid pid) {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

const Process* ProcessTable::Find(Pid pid) const {
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

std::vector<Process*> ProcessTable::alive_processes() {
  std::vector<Process*> out;
  for (auto& [pid, process] : processes_) {
    if (process->alive()) {
      out.push_back(process.get());
    }
  }
  return out;
}

}  // namespace sud::kern
