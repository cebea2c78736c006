#include "edc/recipes/coord.h"

#include <utility>

namespace edc {

// ---------------------------------------------------------------------- ZK

ZkCoordClient::ZkCoordClient(ZkApi* client, bool ext_mode)
    : client_(client), ext_mode_(ext_mode) {
  client_->SetWatchHandler(
      [this](const ZkWatchEventMsg& event) { DispatchWatchEvent(event); });
}

std::string ZkCoordClient::tag() const { return std::to_string(client_->session()); }

void ZkCoordClient::DispatchWatchEvent(const ZkWatchEventMsg& event) {
  if (event.type == ZkEventType::kNodeCreated) {
    auto it = block_waiters_.find(event.path);
    if (it != block_waiters_.end()) {
      std::vector<ValueCb> waiters = std::move(it->second);
      block_waiters_.erase(it);
      // The watch notification itself carries no data; fetch it (this is the
      // extra RPC the extension-based variant avoids, §6.1.3).
      for (ValueCb& cb : waiters) {
        Read(event.path, std::move(cb));
      }
    }
  }
  if (event.type == ZkEventType::kNodeDeleted) {
    auto it = deletion_waiters_.find(event.path);
    if (it != deletion_waiters_.end()) {
      std::vector<std::function<void()>> waiters = std::move(it->second);
      deletion_waiters_.erase(it);
      for (auto& cb : waiters) {
        cb();
      }
    }
  }
}

void ZkCoordClient::Create(const std::string& path, const std::string& data, ValueCb done) {
  client_->Create(path, data, false, false, std::move(done));
}

void ZkCoordClient::Delete(const std::string& path, Cb done) {
  client_->Delete(path, -1, std::move(done));
}

void ZkCoordClient::Read(const std::string& path, ValueCb done) {
  client_->GetData(path, false, [this, path, done = std::move(done)](
                                    Result<ZkApi::NodeResult> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    last_read_version_[path] = r->stat.version;
    done(r->data);
  });
}

void ZkCoordClient::Update(const std::string& path, const std::string& data, Cb done) {
  client_->SetData(path, data, -1, std::move(done));
}

void ZkCoordClient::Cas(const std::string& path, const std::string& expected,
                        const std::string& next, Cb done) {
  (void)expected;  // ZooKeeper cas conditions on the version seen by Read
  auto it = last_read_version_.find(path);
  int32_t version = it == last_read_version_.end() ? 0 : it->second;
  client_->SetData(path, next, version, std::move(done));
}

void ZkCoordClient::SubObjects(const std::string& path, ListCb done) {
  client_->GetChildren(path, false, [this, path, done = std::move(done)](
                                        Result<std::vector<std::string>> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    auto objects = std::make_shared<std::vector<CoordObject>>(r->size());
    auto remaining = std::make_shared<size_t>(r->size());
    if (*remaining == 0) {
      done(std::vector<CoordObject>{});
      return;
    }
    // Step 2 of Table 2: fetch each child's data (and ctime).
    for (size_t i = 0; i < r->size(); ++i) {
      std::string child = path == "/" ? "/" + (*r)[i] : path + "/" + (*r)[i];
      client_->GetData(child, false,
                       [child, i, objects, remaining, done](
                           Result<ZkApi::NodeResult> node) {
                         if (node.ok()) {
                           (*objects)[i] =
                               CoordObject{child, node->data, node->stat.ctime};
                         } else {
                           (*objects)[i] = CoordObject{child, "", 0};
                         }
                         if (--*remaining == 0) {
                           done(std::move(*objects));
                         }
                       });
    }
  });
}

void ZkCoordClient::Block(const std::string& path, ValueCb done) {
  if (ext_mode_) {
    // A block extension holds the request server-side: one RPC. If no
    // extension intercepted (none registered / not acknowledged), the typed
    // result is the plain exists answer and we fall back to the traditional
    // watch protocol.
    client_->CallExtension(path, "", [this, path, done = std::move(done)](
                                         Result<ExtensionResult> r) mutable {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      if (r->intercepted) {
        done(std::move(r->value));  // extension result / deferred unblock payload
        return;
      }
      if (r->exists) {
        Read(path, std::move(done));
        return;
      }
      block_waiters_[path].push_back(std::move(done));
    });
    return;
  }
  // Traditional: exists-with-watch, then wait for the creation notification.
  client_->Exists(path, true, [this, path, done = std::move(done)](
                                  Result<ZkApi::ExistsResult> r) mutable {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    if (r->exists) {
      Read(path, std::move(done));
      return;
    }
    block_waiters_[path].push_back(std::move(done));
  });
}

void ZkCoordClient::Monitor(const std::string& path, Cb done) {
  client_->Create(path, "", /*ephemeral=*/true, false,
                  [done = std::move(done)](Result<std::string> r) { done(r.status()); });
}

void ZkCoordClient::OnDeleted(const std::string& path, std::function<void()> fired) {
  client_->Exists(path, true, [this, path, fired = std::move(fired)](
                                  Result<ZkApi::ExistsResult> r) mutable {
    if (!r.ok() || !r->exists) {
      fired();  // already gone
      return;
    }
    deletion_waiters_[path].push_back(std::move(fired));
  });
}

void ZkCoordClient::RegisterExtension(const std::string& name, const std::string& code,
                                      Cb done) {
  client_->RegisterExtension(name, code, std::move(done));
}

void ZkCoordClient::AcknowledgeExtension(const std::string& name, Cb done) {
  client_->AcknowledgeExtension(name, std::move(done));
}

// ---------------------------------------------------------------------- DS

DsCoordClient::DsCoordClient(EventLoop* loop, DsApi* client)
    : loop_(loop), client_(client) {}

namespace {

Status DsStatus(const Result<DsReply>& r) { return r.status(); }

std::string DsData(const DsReply& reply) {
  if (!reply.tuples.empty() && reply.tuples[0].size() > 1) {
    return FieldToString(reply.tuples[0][1]);
  }
  return reply.value;
}

}  // namespace

void DsCoordClient::Create(const std::string& path, const std::string& data, ValueCb done) {
  // cas gives create-if-absent semantics matching ZooKeeper's create.
  client_->Cas(ObjectTemplate(path), ObjectTuple(path, data),
               [path, done = std::move(done)](Result<DsReply> r) {
                 if (!r.ok()) {
                   done(r.status());
                   return;
                 }
                 done(path);
               });
}

void DsCoordClient::Delete(const std::string& path, Cb done) {
  client_->Inp(ObjectTemplate(path),
               [done = std::move(done)](Result<DsReply> r) { done(DsStatus(r)); });
}

void DsCoordClient::Read(const std::string& path, ValueCb done) {
  client_->Rdp(ObjectTemplate(path), [done = std::move(done)](Result<DsReply> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    done(DsData(*r));
  });
}

void DsCoordClient::Update(const std::string& path, const std::string& data, Cb done) {
  client_->Replace(ObjectTemplate(path), ObjectTuple(path, data),
                   [done = std::move(done)](Result<DsReply> r) { done(DsStatus(r)); });
}

void DsCoordClient::Cas(const std::string& path, const std::string& expected,
                        const std::string& next, Cb done) {
  DsTemplate templ{DsTField::Exact(DsField{path}), DsTField::Exact(DsField{expected})};
  client_->Replace(templ, ObjectTuple(path, next),
                   [done = std::move(done)](Result<DsReply> r) {
                     if (!r.ok() && r.code() == ErrorCode::kNoNode) {
                       // Content mismatch surfaces as a conditional failure.
                       done(Status(ErrorCode::kBadVersion, "conditional replace failed"));
                       return;
                     }
                     done(DsStatus(r));
                   });
}

void DsCoordClient::SubObjects(const std::string& path, ListCb done) {
  client_->RdAll(ObjectPrefixTemplate(path), [done = std::move(done)](Result<DsReply> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    // ctime is not part of the wire tuple; DepSpace recipes order by the
    // element id embedded in the path instead (deterministic insertion
    // order is preserved by RdAll).
    std::vector<CoordObject> objects;
    SimTime order = 0;
    for (const DsTuple& t : r->tuples) {
      CoordObject obj;
      if (!t.empty()) {
        obj.path = FieldToString(t[0]);
      }
      if (t.size() > 1) {
        obj.data = FieldToString(t[1]);
      }
      obj.ctime = order++;  // RdAll preserves insertion order
      objects.push_back(std::move(obj));
    }
    done(std::move(objects));
  });
}

void DsCoordClient::Block(const std::string& path, ValueCb done) {
  client_->Rd(ObjectTemplate(path), [done = std::move(done)](Result<DsReply> r) {
    if (!r.ok()) {
      done(r.status());
      return;
    }
    done(DsData(*r));
  });
}

void DsCoordClient::Monitor(const std::string& path, Cb done) {
  client_->OutLease(ObjectTuple(path, tag()),
                    [done = std::move(done)](Result<DsReply> r) { done(DsStatus(r)); });
}

void DsCoordClient::OnDeleted(const std::string& path, std::function<void()> fired) {
  // DepSpace exposes no deletion events; poll (the paper's election numbers
  // for DepSpace reflect exactly this weakness).
  // The poll function holds itself only weakly; the pending read or timer
  // holds it strongly, so it is freed once the deletion fires.
  auto poll = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_poll = poll;
  *poll = [this, path, fired = std::move(fired), weak_poll]() {
    client_->Rdp(ObjectTemplate(path),
                 [this, fired, self = weak_poll.lock()](Result<DsReply> r) {
                   if (!r.ok()) {
                     fired();
                     return;
                   }
                   loop_->Schedule(kDeletionPollInterval, [self]() { (*self)(); });
                 });
  };
  (*poll)();
}

void DsCoordClient::RegisterExtension(const std::string& name, const std::string& code,
                                      Cb done) {
  client_->RegisterExtension(name, code,
                             [done = std::move(done)](Result<DsReply> r) { done(DsStatus(r)); });
}

void DsCoordClient::AcknowledgeExtension(const std::string& name, Cb done) {
  client_->AcknowledgeExtension(
      name, [done = std::move(done)](Result<DsReply> r) { done(DsStatus(r)); });
}

}  // namespace edc
