// Hierarchical data tree of the ZooKeeper-like service.
//
// Pure deterministic state machine: every mutation takes the zxid and leader
// timestamp that the replication layer assigned, so applying the same
// transaction sequence on any replica produces a bit-identical tree
// (including Serialize() output, which state transfer relies on).

#ifndef EDC_ZK_DATA_TREE_H_
#define EDC_ZK_DATA_TREE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "edc/common/result.h"
#include "edc/zk/types.h"

namespace edc {

struct ZkNodeView {
  std::string data;
  ZkStat stat;
};

class DataTree {
 public:
  DataTree();

  DataTree(const DataTree&) = delete;
  DataTree& operator=(const DataTree&) = delete;

  // Creates `path` (parent must exist and not be ephemeral). For sequential
  // nodes the stored name is path + 10-digit counter taken from the parent.
  // Returns the actual path created.
  Result<std::string> Create(const std::string& path, const std::string& data,
                             uint64_t ephemeral_owner, bool sequential, uint64_t zxid,
                             SimTime time);

  // Deletes `path` if version matches (-1 = any) and it has no children.
  Status Delete(const std::string& path, int32_t version, uint64_t zxid);

  // Sets data if version matches (-1 = any).
  Status SetData(const std::string& path, const std::string& data, int32_t version,
                 uint64_t zxid, SimTime time);

  bool Exists(const std::string& path) const;
  Result<ZkNodeView> Get(const std::string& path) const;
  Result<std::vector<std::string>> GetChildren(const std::string& path) const;

  // The sequence number the next sequential child of `parent` would get.
  Result<uint64_t> NextSequence(const std::string& parent) const;

  // All paths whose ephemeral owner is `session`, sorted.
  std::vector<std::string> EphemeralsOf(uint64_t session) const;

  size_t node_count() const { return node_count_; }

  std::vector<uint8_t> Serialize() const;
  Status Load(const std::vector<uint8_t>& snapshot);

  // Framed snapshot codec for state transfer: one PutFramed frame
  // (common/codec.h) around the Serialize() bytes — the same framing as the
  // LogStore's on-disk records. RestoreImage verifies the frame,
  // decodes into a scratch tree and swaps only on full success — a truncated
  // or corrupted image (any byte, any offset) fails with kDecodeError and
  // leaves this tree exactly as it was. Never half-applies.
  std::vector<uint8_t> SerializeImage() const;
  Status RestoreImage(const std::vector<uint8_t>& image);

 private:
  struct Node {
    std::string data;
    ZkStat stat;
    uint64_t next_seq = 0;
    std::map<std::string, std::unique_ptr<Node>> children;
  };

  Node* Find(const std::string& path);
  const Node* Find(const std::string& path) const;
  Node* FindParent(const std::string& path, std::string* name) ;

  static void SerializeNode(Encoder& enc, const std::string& path, const Node& node);
  Status LoadNode(Decoder& dec);
  static void CollectEphemerals(const std::string& path, const Node& node, uint64_t session,
                                std::vector<std::string>* out);

  Node root_;
  size_t node_count_ = 1;
};

}  // namespace edc

#endif  // EDC_ZK_DATA_TREE_H_
