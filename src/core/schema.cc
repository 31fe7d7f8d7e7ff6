#include "src/core/schema.h"

namespace switchfs::core {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kCreate:
      return "create";
    case OpType::kUnlink:
      return "delete";
    case OpType::kMkdir:
      return "mkdir";
    case OpType::kRmdir:
      return "rmdir";
    case OpType::kRename:
      return "rename";
    case OpType::kStat:
      return "stat";
    case OpType::kStatDir:
      return "statdir";
    case OpType::kReaddir:
      return "readdir";
    case OpType::kOpen:
      return "open";
    case OpType::kClose:
      return "close";
    case OpType::kLink:
      return "link";
    case OpType::kOpenDir:
      return "opendir";
    case OpType::kReaddirPage:
      return "readdirpage";
    case OpType::kCloseDir:
      return "closedir";
    case OpType::kBatchStat:
      return "batchstat";
    case OpType::kSetAttr:
      return "setattr";
    case OpType::kBulkInsert:
      return "bulkinsert";
    case OpType::kBatchStatDir:
      return "batchstatdir";
  }
  return "unknown";
}

std::string InodeKey(const InodeId& pid, std::string_view name) {
  std::string key;
  key.reserve(1 + 32 + name.size());
  key.push_back('i');
  key += pid.ToKeyBytes();
  key += name;
  return key;
}

std::string EntryKey(const InodeId& dir_id, std::string_view name) {
  std::string key;
  key.reserve(1 + 32 + name.size());
  key.push_back('e');
  key += dir_id.ToKeyBytes();
  key += name;
  return key;
}

std::string EntryPrefix(const InodeId& dir_id) {
  std::string key;
  key.reserve(1 + 32);
  key.push_back('e');
  key += dir_id.ToKeyBytes();
  return key;
}

std::string_view EntryNameFromKey(std::string_view key) {
  return key.substr(1 + 32);
}

uint64_t NameHash(const InodeId& pid, std::string_view name) {
  return HashCombine(pid.Hash64(), HashString(name));
}

std::string EncodeEntryValue(FileType type) {
  return std::string(1, static_cast<char>(type));
}

FileType DecodeEntryValue(std::string_view value) {
  return value.empty() ? FileType::kFile : static_cast<FileType>(value[0]);
}

}  // namespace switchfs::core
