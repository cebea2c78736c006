#include "edc/logstore/logstore.h"

#include <algorithm>
#include <utility>

#include "edc/common/codec.h"

namespace edc {

Duration LogStore::InitialWindow(const LogStoreConfig& config) {
  if (!config.adaptive_window) {
    return config.group_commit_window;
  }
  return std::clamp(config.group_commit_window, config.min_window, config.max_window);
}

void LogStore::SetObs(Obs* obs, uint32_t track) {
  obs_ = obs;
  track_ = track;
  if (obs_ != nullptr) {
    m_syncs_ = obs_->metrics.GetCounter("logstore.syncs");
    m_bytes_ = obs_->metrics.GetCounter("logstore.bytes");
    m_batch_records_ = obs_->metrics.GetHistogram("logstore.batch_records");
    m_batch_bytes_ = obs_->metrics.GetHistogram("logstore.batch_bytes");
    m_queue_depth_ = obs_->metrics.GetHistogram("logstore.queue_depth");
    m_inflight_ = obs_->metrics.GetHistogram("logstore.inflight");
    m_window_us_ = obs_->metrics.GetHistogram("logstore.window_us");
  } else {
    m_syncs_ = m_bytes_ = nullptr;
    m_batch_records_ = m_batch_bytes_ = m_queue_depth_ = nullptr;
    m_inflight_ = m_window_us_ = nullptr;
  }
}

void LogStore::Append(std::vector<uint8_t> record, DurableCallback on_durable) {
  Pending p{std::move(record), std::move(on_durable), TraceContext{}, 0};
  if (obs_ != nullptr) {
    p.ctx = obs_->tracer.current();
    p.at = loop_->now();
    m_queue_depth_->Record(static_cast<int64_t>(pending_.size()) + 1);
  }
  pending_.push_back(std::move(p));
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    uint64_t epoch = flush_epoch_;
    loop_->Schedule(window_, [this, epoch]() {
      if (epoch != flush_epoch_) {
        return;  // a crash intervened
      }
      Flush();
    });
  }
}

void LogStore::AdaptWindow(size_t batch_records) {
  if (!config_.adaptive_window) {
    return;
  }
  if (batch_records >= config_.window_grow_records) {
    window_ = std::min(window_ * 2, config_.max_window);
  } else if (batch_records <= config_.window_shrink_records) {
    window_ = std::max(window_ / 2, config_.min_window);
  }
}

void LogStore::Flush() {
  flush_scheduled_ = false;
  if (pending_.empty()) {
    return;
  }
  size_t batch_records = pending_.size();
  size_t batch_bytes = 0;
  for (const Pending& p : pending_) {
    batch_bytes += p.record.size();
  }
  Duration write_time = static_cast<Duration>(static_cast<double>(batch_bytes) * 8.0 /
                                              config_.disk_bandwidth_bps * 1e9);
  // Submit to the pipeline channel that frees up first (lowest index on
  // ties); with pipeline_depth 1 this degenerates to the legacy serial
  // disk_free_at_ chain where every batch waits out the previous fsync.
  size_t channel = 0;
  for (size_t i = 1; i < channel_free_at_.size(); ++i) {
    if (channel_free_at_[i] < channel_free_at_[channel]) {
      channel = i;
    }
  }
  SimTime start = std::max(loop_->now(), channel_free_at_[channel]);
  SimTime durable_at = start + config_.fsync_latency + write_time;
  channel_free_at_[channel] = durable_at;
  ++syncs_;
  appended_bytes_ += static_cast<int64_t>(batch_bytes);
  if (obs_ != nullptr) {
    m_syncs_->Increment();
    m_bytes_->Add(static_cast<int64_t>(batch_bytes));
    m_batch_records_->Record(static_cast<int64_t>(batch_records));
    m_batch_bytes_->Record(static_cast<int64_t>(batch_bytes));
    m_inflight_->Record(static_cast<int64_t>(inflight_.size()) + 1);
    m_window_us_->Record(window_ / 1000);
  }

  Batch batch;
  batch.seq = next_batch_seq_++;
  batch.entries = std::move(pending_);
  batch.submitted_at = loop_->now();
  pending_.clear();
  uint64_t seq = batch.seq;
  inflight_.push_back(std::move(batch));
  AdaptWindow(batch_records);

  uint64_t epoch = flush_epoch_;
  loop_->ScheduleAt(durable_at, [this, seq, epoch]() {
    if (epoch != flush_epoch_) {
      return;  // those batches died with the crash
    }
    for (Batch& b : inflight_) {
      if (b.seq == seq) {
        b.durable = true;
        break;
      }
    }
    PublishDurablePrefix();
  });
}

void LogStore::PublishDurablePrefix() {
  uint64_t epoch = flush_epoch_;
  bool published = false;
  // Channels complete out of order, but callers observe strict record order:
  // a durable batch publishes only once every earlier batch has published.
  while (!inflight_.empty() && inflight_.front().durable) {
    Batch batch = std::move(inflight_.front());
    inflight_.pop_front();
    published = true;
    for (Pending& p : batch.entries) {
      records_.push_back(std::move(p.record));
    }
    for (Pending& p : batch.entries) {
      // Each append waited append-to-submission on the group-commit window
      // and submission-to-publication on the (pipelined) fsync: record both
      // as kFsync spans and run the callback under the appender's context,
      // so the reply path stays attributed to the originating operation.
      if (obs_ != nullptr && p.ctx.active()) {
        if (batch.submitted_at > p.at) {
          obs_->tracer.RecordSpanIn(p.ctx, "log.gc_wait", Stage::kFsync, track_, p.at,
                                    batch.submitted_at);
        }
        obs_->tracer.RecordSpanIn(p.ctx, "log.fsync", Stage::kFsync, track_,
                                  batch.submitted_at, loop_->now());
      }
      if (p.cb) {
        if (obs_ != nullptr) {
          TraceContext prev = obs_->tracer.current();
          obs_->tracer.SetCurrent(p.ctx);
          p.cb();
          obs_->tracer.SetCurrent(prev);
        } else {
          p.cb();
        }
      }
    }
    if (epoch != flush_epoch_) {
      return;  // a durable callback crashed the store; later batches are gone
    }
  }
  if (published && batch_cb_) {
    batch_cb_();
  }
}

void LogStore::Truncate(size_t first_removed) {
  if (first_removed < records_.size()) {
    records_.resize(first_removed);
  }
}

void LogStore::DropHead(size_t count) {
  if (count >= records_.size()) {
    records_.clear();
  } else {
    records_.erase(records_.begin(), records_.begin() + static_cast<ptrdiff_t>(count));
  }
}

void LogStore::DropUnsynced() {
  pending_.clear();
  inflight_.clear();
  flush_scheduled_ = false;
  window_ = InitialWindow(config_);
  ++flush_epoch_;
  // channel_free_at_ is intentionally NOT reset: the simulated device is
  // still busy finishing writes the dead process issued, exactly as the
  // single disk_free_at_ survived a crash before pipelining.
}

std::vector<uint8_t> LogStore::SerializeImage() const {
  Encoder enc;
  for (const std::vector<uint8_t>& record : records_) {
    PutFramed(enc, record);
  }
  return enc.Release();
}

Result<size_t> LogStore::RestoreImage(const std::vector<uint8_t>& image) {
  std::vector<std::vector<uint8_t>> restored;
  Decoder dec(image);
  while (!dec.AtEnd()) {
    std::vector<uint8_t> record;
    FrameStatus frame = GetFramed(dec, &record);
    if (frame == FrameStatus::kTruncated) {
      break;  // torn tail: keep the clean prefix
    }
    if (frame == FrameStatus::kCorrupt) {
      // A complete record whose bytes don't match its checksum is corruption,
      // not a crash mid-write; refuse the image rather than silently dropping
      // interior history.
      return Status(ErrorCode::kDecodeError, "log record checksum mismatch");
    }
    restored.push_back(std::move(record));
  }
  records_ = std::move(restored);
  return records_.size();
}

}  // namespace edc
