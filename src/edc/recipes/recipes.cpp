#include "edc/recipes/recipes.h"

#include <algorithm>
#include <utility>

#include "edc/common/strings.h"
#include "edc/recipes/scripts.h"

namespace edc {

namespace {

// Setup helpers tolerate re-creation (several benches share one namespace).
void CreateIgnoringExists(CoordClient* client, const std::string& path,
                          const std::string& data, CoordClient::Cb done) {
  client->Create(path, data, [done = std::move(done)](Result<std::string> r) {
    if (!r.ok() && r.code() != ErrorCode::kNodeExists) {
      done(r.status());
      return;
    }
    done(Status::Ok());
  });
}

}  // namespace

std::string PrefixedExtensionName(const std::string& prefix, const std::string& base) {
  if (prefix.empty()) {
    return base;
  }
  std::string tag;
  for (char c : prefix) {
    tag.push_back(c == '/' ? '_' : c);
  }
  // "/g0" -> "_g0" -> "g0_ctr_increment".
  if (!tag.empty() && tag[0] == '_') {
    tag.erase(0, 1);
  }
  return tag + "_" + base;
}

std::string NamespacedScript(const std::string& script, const std::string& old_name,
                             const std::string& new_name, const std::string& prefix) {
  std::string out = script;
  size_t pos = out.find(old_name);
  if (pos != std::string::npos) {
    out.replace(pos, old_name.size(), new_name);
  }
  if (prefix.empty()) {
    return out;
  }
  std::string rewritten;
  rewritten.reserve(out.size() + 16 * prefix.size());
  for (size_t i = 0; i < out.size(); ++i) {
    rewritten.push_back(out[i]);
    if (out[i] == '"' && i + 1 < out.size() && out[i + 1] == '/') {
      rewritten += prefix;
    }
  }
  return rewritten;
}

// ------------------------------------------------------------ SharedCounter

void SharedCounter::Setup(CoordClient::Cb done) {
  auto rest = [this, done](Status s0) {
    if (!s0.ok()) {
      done(s0);
      return;
    }
    CreateIgnoringExists(client_, prefix_ + "/ctr", "0", [this, done](Status s) {
      if (!s.ok() || !use_extension_) {
        done(s);
        return;
      }
      client_->RegisterExtension(
          ext_name_, NamespacedScript(kCounterExtension, "ctr_increment", ext_name_, prefix_),
          done);
    });
  };
  if (prefix_.empty()) {
    rest(Status::Ok());
    return;
  }
  CreateIgnoringExists(client_, prefix_, "", rest);
}

void SharedCounter::Attach(CoordClient::Cb done) {
  if (!use_extension_) {
    done(Status::Ok());
    return;
  }
  client_->AcknowledgeExtension(ext_name_, std::move(done));
}

void SharedCounter::Increment(IntCb done) {
  if (use_extension_) {
    // Fig. 5 bottom: a single remote call to the trigger object.
    client_->Read(prefix_ + "/ctr-increment", [done = std::move(done)](Result<std::string> r) {
      if (!r.ok()) {
        done(r.status());
        return;
      }
      auto v = ParseInt64(*r);
      if (!v.ok()) {
        done(Status(ErrorCode::kInternal, "bad counter reply '" + *r + "'"));
        return;
      }
      done(*v);
    });
    return;
  }
  TryIncrement(std::make_shared<IntCb>(std::move(done)));
}

void SharedCounter::TryIncrement(std::shared_ptr<IntCb> done) {
  // Fig. 5 top: read, then conditional write; retry on contention.
  client_->Read(prefix_ + "/ctr", [this, done](Result<std::string> r) {
    if (!r.ok()) {
      (*done)(r.status());
      return;
    }
    auto current = ParseInt64(*r);
    if (!current.ok()) {
      (*done)(Status(ErrorCode::kInternal, "bad counter value"));
      return;
    }
    int64_t next = *current + 1;
    client_->Cas(prefix_ + "/ctr", *r, std::to_string(next), [this, done, next](Status s) {
      if (s.ok()) {
        (*done)(next);
        return;
      }
      if (s.code() == ErrorCode::kBadVersion || s.code() == ErrorCode::kNoNode) {
        ++retries_;
        TryIncrement(done);
        return;
      }
      (*done)(s);
    });
  });
}

// --------------------------------------------------------- DistributedQueue

void DistributedQueue::Setup(CoordClient::Cb done) {
  auto rest = [this, done](Status s0) {
    if (!s0.ok()) {
      done(s0);
      return;
    }
    CreateIgnoringExists(client_, prefix_ + "/queue", "", [this, done](Status s) {
      if (!s.ok() || !use_extension_) {
        done(s);
        return;
      }
      client_->RegisterExtension(
          ext_name_, NamespacedScript(kQueueExtension, "queue_remove", ext_name_, prefix_),
          done);
    });
  };
  if (prefix_.empty()) {
    rest(Status::Ok());
    return;
  }
  CreateIgnoringExists(client_, prefix_, "", rest);
}

void DistributedQueue::Attach(CoordClient::Cb done) {
  if (!use_extension_) {
    done(Status::Ok());
    return;
  }
  client_->AcknowledgeExtension(ext_name_, std::move(done));
}

void DistributedQueue::Add(const std::string& element_id, const std::string& data,
                           CoordClient::Cb done) {
  // Identical in both variants (Fig. 7, T1-T4 / C1-C3).
  client_->Create(prefix_ + "/queue/" + element_id, data,
                  [done = std::move(done)](Result<std::string> r) { done(r.status()); });
}

void DistributedQueue::Remove(ValueCb done) {
  if (use_extension_) {
    client_->Read(prefix_ + "/queue/head", std::move(done));
    return;
  }
  TryRemove(std::make_shared<ValueCb>(std::move(done)), 0);
}

void DistributedQueue::TryRemove(std::shared_ptr<ValueCb> done, int attempts) {
  if (attempts > 1000) {
    (*done)(Status(ErrorCode::kTimeout, "queue remove starved"));
    return;
  }
  // Fig. 7 left: learn all elements, order by creation time, try to delete
  // head-first; on losing every race, start over.
  client_->SubObjects(prefix_ + "/queue", [this, done, attempts](
                                    Result<std::vector<CoordObject>> r) {
    if (!r.ok()) {
      (*done)(r.status());
      return;
    }
    if (r->empty()) {
      (*done)(Status(ErrorCode::kNoNode, "queue empty"));
      return;
    }
    auto objs = std::make_shared<std::vector<CoordObject>>(std::move(*r));
    std::stable_sort(objs->begin(), objs->end(),
                     [](const CoordObject& a, const CoordObject& b) {
                       return a.ctime < b.ctime;
                     });
    auto index = std::make_shared<size_t>(0);
    // The step function holds itself only weakly; the pending Delete's
    // callback holds it strongly, so the chain is freed once it stops.
    auto try_next = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_next = try_next;
    *try_next = [this, done, attempts, objs, index, weak_next]() {
      if (*index >= objs->size()) {
        ++retries_;
        TryRemove(done, attempts + 1);
        return;
      }
      const CoordObject& candidate = (*objs)[*index];
      client_->Delete(candidate.path,
                      [done, index, next = weak_next.lock(),
                       data = candidate.data](Status s) {
                        if (s.ok()) {
                          (*done)(data);
                          return;
                        }
                        ++*index;
                        (*next)();
                      });
    };
    (*try_next)();
  });
}

// ------------------------------------------------------- DistributedBarrier

void DistributedBarrier::Setup(CoordClient::Cb done) {
  CreateIgnoringExists(client_, "/barrier", "", [this, done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    CreateIgnoringExists(
        client_, "/barrier-size", std::to_string(size_),
        [this, done = std::move(done)](Status s2) {
          if (!s2.ok() || !use_extension_) {
            done(s2);
            return;
          }
          client_->RegisterExtension("barrier_enter", kBarrierExtension, std::move(done));
        });
  });
}

void DistributedBarrier::Attach(CoordClient::Cb done) {
  if (!use_extension_) {
    done(Status::Ok());
    return;
  }
  client_->AcknowledgeExtension("barrier_enter", std::move(done));
}

void DistributedBarrier::Enter(CoordClient::Cb done) {
  if (use_extension_) {
    // Fig. 9 right: a single blocking call; the extension does the rest.
    client_->Block("/enter/" + client_->tag(),
                   [done = std::move(done)](Result<std::string> r) { done(r.status()); });
    return;
  }
  // Fig. 9 left: register, count, then block on /barrier-ready or create it.
  client_->Create(
      "/barrier/" + client_->tag(), "",
      [this, done = std::move(done)](Result<std::string> created) {
        if (!created.ok() && created.code() != ErrorCode::kNodeExists) {
          done(created.status());
          return;
        }
        client_->SubObjects("/barrier", [this, done](Result<std::vector<CoordObject>> r) {
          if (!r.ok()) {
            done(r.status());
            return;
          }
          if (static_cast<int>(r->size()) < size_) {
            client_->Block("/barrier-ready",
                           [done](Result<std::string> b) { done(b.status()); });
          } else {
            client_->Create("/barrier-ready", "", [done](Result<std::string> c) {
              if (!c.ok() && c.code() != ErrorCode::kNodeExists) {
                done(c.status());
                return;
              }
              done(Status::Ok());
            });
          }
        });
      });
}

void DistributedBarrier::Reset(CoordClient::Cb done) {
  client_->Delete("/barrier-ready", [this, done = std::move(done)](Status) {
    client_->SubObjects("/barrier", [this, done](Result<std::vector<CoordObject>> r) {
      if (!r.ok() || r->empty()) {
        done(Status::Ok());
        return;
      }
      auto remaining = std::make_shared<size_t>(r->size());
      for (const CoordObject& obj : *r) {
        client_->Delete(obj.path, [remaining, done](Status) {
          if (--*remaining == 0) {
            done(Status::Ok());
          }
        });
      }
    });
  });
}

// ---------------------------------------------------------- LeaderElection

void LeaderElection::Setup(CoordClient::Cb done) {
  CreateIgnoringExists(client_, "/leader", "", [this, done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    CreateIgnoringExists(client_, "/clients", "",
                         [this, done = std::move(done)](Status s2) {
                           if (!s2.ok() || !use_extension_) {
                             done(s2);
                             return;
                           }
                           client_->RegisterExtension("leader_elect", kElectionExtension,
                                                      std::move(done));
                         });
  });
}

void LeaderElection::Attach(CoordClient::Cb done) {
  if (!use_extension_) {
    done(Status::Ok());
    return;
  }
  client_->AcknowledgeExtension("leader_elect", std::move(done));
}

void LeaderElection::BecomeLeader(CoordClient::Cb done) {
  client_->EnsureLivenessRenewal();
  if (use_extension_) {
    // Fig. 11 right: one blocking call; the extension monitors us, appoints
    // leaders and unblocks the winner.
    client_->Block("/leader/" + client_->tag(),
                   [done = std::move(done)](Result<std::string> r) { done(r.status()); });
    return;
  }
  // Fig. 11 left: register a monitored id object, then evaluate leadership
  // each time the current leader's object disappears.
  my_path_ = "/leader/" + client_->tag() + "-r" + std::to_string(round_++);
  client_->Monitor(my_path_, [this, done = std::move(done)](Status s) {
    if (!s.ok() && s.code() != ErrorCode::kNodeExists) {
      done(s);
      return;
    }
    CheckLeader(std::make_shared<CoordClient::Cb>(std::move(done)));
  });
}

void LeaderElection::CheckLeader(std::shared_ptr<CoordClient::Cb> done) {
  client_->SubObjects("/leader", [this, done](Result<std::vector<CoordObject>> r) {
    if (!r.ok()) {
      (*done)(r.status());
      return;
    }
    if (r->empty()) {
      (*done)(Status(ErrorCode::kNoNode, "not registered"));
      return;
    }
    const CoordObject* leader = &(*r)[0];
    for (const CoordObject& obj : *r) {
      if (obj.ctime < leader->ctime) {
        leader = &obj;
      }
    }
    if (leader->path == my_path_) {
      (*done)(Status::Ok());
      return;
    }
    // Wait for the current leader's object to go away, then re-evaluate
    // (T10-T11; one additional remote call after the event, §6.1.4).
    client_->OnDeleted(leader->path, [this, done]() { CheckLeader(done); });
  });
}

void LeaderElection::Abdicate(CoordClient::Cb done) {
  if (use_extension_) {
    client_->Delete("/clients/" + client_->tag(), std::move(done));
    return;
  }
  client_->Delete(my_path_, std::move(done));
}

}  // namespace edc
