#include "src/workload/traces.h"

#include "src/common/random.h"
#include "src/core/types.h"

namespace switchfs::wl {

namespace {

void Shuffle(std::vector<size_t>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

}  // namespace

CvTrainingTrace::CvTrainingTrace(std::vector<std::string> dirs,
                                 const TraceConfig& config) {
  Rng rng(config.seed);
  std::vector<std::string> files;
  files.reserve(dirs.size() * config.files_per_dir);
  for (const std::string& d : dirs) {
    for (int i = 0; i < config.files_per_dir; ++i) {
      files.push_back(d + "/img" + std::to_string(i));
    }
  }

  // Phase 1 — dataset download: create + write each file.
  for (const std::string& f : files) {
    Op op;
    op.type = core::OpType::kCreate;
    op.path = f;
    if (config.with_data) {
      op.io_bytes = config.file_bytes;
      op.is_data_write = true;
    }
    script_.push_back(op);
  }

  // Phase 2 — training epochs: stat + open(+read) every file, random order.
  std::vector<size_t> order(files.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (int e = 0; e < config.epochs; ++e) {
    Shuffle(order, rng);
    for (size_t idx : order) {
      Op st;
      st.type = core::OpType::kStat;
      st.path = files[idx];
      script_.push_back(st);
      Op rd;
      rd.type = core::OpType::kOpen;
      rd.path = files[idx];
      if (config.with_data) {
        rd.io_bytes = config.file_bytes;
      }
      script_.push_back(rd);
      Op cl;
      cl.type = core::OpType::kClose;
      cl.path = files[idx];
      script_.push_back(cl);
    }
  }

  // Phase 3 — dataset removal.
  Shuffle(order, rng);
  for (size_t idx : order) {
    Op op;
    op.type = core::OpType::kUnlink;
    op.path = files[idx];
    script_.push_back(op);
  }
}

std::optional<Op> CvTrainingTrace::Next(Rng& /*rng*/) {
  if (next_ >= script_.size()) {
    return std::nullopt;
  }
  return script_[next_++];
}

ThumbnailTrace::ThumbnailTrace(std::vector<std::string> dirs,
                               const TraceConfig& config) {
  Rng rng(config.seed);
  for (const std::string& d : dirs) {
    for (int i = 0; i < config.files_per_dir; ++i) {
      const std::string src = d + "/img" + std::to_string(i);
      // open + read the source image...
      Op open;
      open.type = core::OpType::kOpen;
      open.path = src;
      if (config.with_data) {
        open.io_bytes = config.file_bytes;
      }
      script_.push_back(open);
      Op st;
      st.type = core::OpType::kStat;
      st.path = src;
      script_.push_back(st);
      // ...then create + write the thumbnail next to it.
      Op thumb;
      thumb.type = core::OpType::kCreate;
      thumb.path = d + "/thumb" + std::to_string(i);
      if (config.with_data) {
        thumb.io_bytes = config.file_bytes / 8;
        thumb.is_data_write = true;
      }
      script_.push_back(thumb);
      Op close;
      close.type = core::OpType::kClose;
      close.path = src;
      script_.push_back(close);
    }
  }
}

std::optional<Op> ThumbnailTrace::Next(Rng& /*rng*/) {
  if (next_ >= script_.size()) {
    return std::nullopt;
  }
  return script_[next_++];
}

}  // namespace switchfs::wl
