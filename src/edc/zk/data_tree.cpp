#include "edc/zk/data_tree.h"

#include <utility>

#include "edc/common/strings.h"

namespace edc {

DataTree::DataTree() = default;

DataTree::Node* DataTree::Find(const std::string& path) {
  return const_cast<Node*>(static_cast<const DataTree*>(this)->Find(path));
}

const DataTree::Node* DataTree::Find(const std::string& path) const {
  if (path == "/") {
    return &root_;
  }
  const Node* cur = &root_;
  size_t start = 1;
  while (start <= path.size()) {
    size_t pos = path.find('/', start);
    std::string comp = pos == std::string::npos ? path.substr(start)
                                                : path.substr(start, pos - start);
    auto it = cur->children.find(comp);
    if (it == cur->children.end()) {
      return nullptr;
    }
    cur = it->second.get();
    if (pos == std::string::npos) {
      break;
    }
    start = pos + 1;
  }
  return cur;
}

DataTree::Node* DataTree::FindParent(const std::string& path, std::string* name) {
  std::string parent = ParentPath(path);
  if (parent.empty()) {
    return nullptr;
  }
  *name = BaseName(path);
  return Find(parent);
}

Result<std::string> DataTree::Create(const std::string& path, const std::string& data,
                                     uint64_t ephemeral_owner, bool sequential, uint64_t zxid,
                                     SimTime time) {
  if (auto s = ValidatePath(path); !s.ok()) {
    return s;
  }
  if (path == "/") {
    return Status(ErrorCode::kNodeExists, "/");
  }
  std::string name;
  Node* parent = FindParent(path, &name);
  if (parent == nullptr) {
    return Status(ErrorCode::kNoNode, "parent of " + path);
  }
  if (parent->stat.ephemeral_owner != 0) {
    return Status(ErrorCode::kNoChildrenForEphemerals, ParentPath(path));
  }
  std::string actual_name = name;
  if (sequential) {
    actual_name += SequenceSuffix(parent->next_seq++);
  }
  if (parent->children.count(actual_name) > 0) {
    return Status(ErrorCode::kNodeExists, path);
  }
  auto node = std::make_unique<Node>();
  node->data = data;
  node->stat.czxid = zxid;
  node->stat.mzxid = zxid;
  node->stat.ctime = time;
  node->stat.mtime = time;
  node->stat.ephemeral_owner = ephemeral_owner;
  parent->children.emplace(actual_name, std::move(node));
  parent->stat.cversion += 1;
  parent->stat.pzxid = zxid;
  parent->stat.num_children = static_cast<uint32_t>(parent->children.size());
  ++node_count_;
  return ParentPath(path) == "/" ? "/" + actual_name : ParentPath(path) + "/" + actual_name;
}

Status DataTree::Delete(const std::string& path, int32_t version, uint64_t zxid) {
  if (path == "/") {
    return Status(ErrorCode::kInvalidArgument, "cannot delete root");
  }
  std::string name;
  Node* parent = FindParent(path, &name);
  if (parent == nullptr) {
    return Status(ErrorCode::kNoNode, path);
  }
  auto it = parent->children.find(name);
  if (it == parent->children.end()) {
    return Status(ErrorCode::kNoNode, path);
  }
  Node* node = it->second.get();
  if (version != -1 && node->stat.version != version) {
    return Status(ErrorCode::kBadVersion, path);
  }
  if (!node->children.empty()) {
    return Status(ErrorCode::kNotEmpty, path);
  }
  parent->children.erase(it);
  parent->stat.cversion += 1;
  parent->stat.pzxid = zxid;
  parent->stat.num_children = static_cast<uint32_t>(parent->children.size());
  --node_count_;
  return Status::Ok();
}

Status DataTree::SetData(const std::string& path, const std::string& data, int32_t version,
                         uint64_t zxid, SimTime time) {
  Node* node = Find(path);
  if (node == nullptr) {
    return Status(ErrorCode::kNoNode, path);
  }
  if (version != -1 && node->stat.version != version) {
    return Status(ErrorCode::kBadVersion,
                  path + ": expected " + std::to_string(version) + ", have " +
                      std::to_string(node->stat.version));
  }
  node->data = data;
  node->stat.version += 1;
  node->stat.mzxid = zxid;
  node->stat.mtime = time;
  return Status::Ok();
}

bool DataTree::Exists(const std::string& path) const { return Find(path) != nullptr; }

Result<ZkNodeView> DataTree::Get(const std::string& path) const {
  const Node* node = Find(path);
  if (node == nullptr) {
    return Status(ErrorCode::kNoNode, path);
  }
  return ZkNodeView{node->data, node->stat};
}

Result<std::vector<std::string>> DataTree::GetChildren(const std::string& path) const {
  const Node* node = Find(path);
  if (node == nullptr) {
    return Status(ErrorCode::kNoNode, path);
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    names.push_back(name);
  }
  return names;
}

Result<uint64_t> DataTree::NextSequence(const std::string& parent) const {
  const Node* node = Find(parent);
  if (node == nullptr) {
    return Status(ErrorCode::kNoNode, parent);
  }
  return node->next_seq;
}

void DataTree::CollectEphemerals(const std::string& path, const Node& node, uint64_t session,
                                 std::vector<std::string>* out) {
  for (const auto& [name, child] : node.children) {
    std::string child_path = path == "/" ? "/" + name : path + "/" + name;
    if (child->stat.ephemeral_owner == session) {
      out->push_back(child_path);
    }
    CollectEphemerals(child_path, *child, session, out);
  }
}

std::vector<std::string> DataTree::EphemeralsOf(uint64_t session) const {
  std::vector<std::string> out;
  CollectEphemerals("/", root_, session, &out);
  return out;
}

void DataTree::SerializeNode(Encoder& enc, const std::string& path, const Node& node) {
  enc.PutString(path);
  enc.PutString(node.data);
  node.stat.Encode(enc);
  enc.PutU64(node.next_seq);
  for (const auto& [name, child] : node.children) {
    SerializeNode(enc, path == "/" ? "/" + name : path + "/" + name, *child);
  }
}

std::vector<uint8_t> DataTree::Serialize() const {
  Encoder enc;
  SerializeNode(enc, "/", root_);
  return enc.Release();
}

Status DataTree::LoadNode(Decoder& dec) {
  auto path = dec.GetString();
  auto data = dec.GetString();
  if (!path.ok() || !data.ok()) {
    return Status(ErrorCode::kDecodeError, "snapshot node header");
  }
  auto stat = ZkStat::Decode(dec);
  auto next_seq = stat.ok() ? dec.GetU64() : Result<uint64_t>(ErrorCode::kDecodeError);
  if (!stat.ok() || !next_seq.ok()) {
    return Status(ErrorCode::kDecodeError, "snapshot node stat");
  }
  Node* node;
  if (*path == "/") {
    node = &root_;
  } else {
    std::string name;
    Node* parent = FindParent(*path, &name);
    if (parent == nullptr) {
      return Status(ErrorCode::kDecodeError, "snapshot parent ordering");
    }
    auto fresh = std::make_unique<Node>();
    node = fresh.get();
    parent->children.emplace(name, std::move(fresh));
    ++node_count_;
  }
  node->data = std::move(*data);
  node->stat = *stat;
  node->next_seq = *next_seq;
  return Status::Ok();
}

Status DataTree::Load(const std::vector<uint8_t>& snapshot) {
  root_ = Node{};
  node_count_ = 1;
  Decoder dec(snapshot);
  while (!dec.AtEnd()) {
    if (auto s = LoadNode(dec); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

std::vector<uint8_t> DataTree::SerializeImage() const {
  Encoder enc;
  PutFramed(enc, Serialize());
  return enc.Release();
}

Status DataTree::RestoreImage(const std::vector<uint8_t>& image) {
  // A snapshot file is exactly one intact frame: truncation, a checksum
  // mismatch and trailing garbage are all rejected.
  Decoder dec(image);
  std::vector<uint8_t> body;
  switch (GetFramed(dec, &body)) {
    case FrameStatus::kTruncated:
      return Status(ErrorCode::kDecodeError, "snapshot image truncated");
    case FrameStatus::kCorrupt:
      return Status(ErrorCode::kDecodeError, "snapshot image checksum mismatch");
    case FrameStatus::kOk:
      break;
  }
  if (!dec.AtEnd()) {
    return Status(ErrorCode::kDecodeError, "snapshot image has trailing bytes");
  }
  // Decode into a scratch tree and swap only on full success, so a payload
  // that passes the checksum but fails structural decode never half-applies.
  DataTree scratch;
  if (auto s = scratch.Load(body); !s.ok()) {
    return s;
  }
  root_ = std::move(scratch.root_);
  node_count_ = scratch.node_count_;
  return Status::Ok();
}

}  // namespace edc
