// ppa/meshspectral/rowcol.hpp
//
// Row- and column-distributed matrices and the redistribution between them
// (paper Fig 7). Row operations require data distributed by rows; column
// operations require distribution by columns; composing the two requires an
// all-to-all redistribution — the pattern at the heart of the 2-D FFT and
// spectral applications.
//
// Storage convention: a RowDistributed matrix stores its local rows
// contiguously (Array2D with shape rows_local x ncols). A ColDistributed
// matrix stores its local *columns* contiguously (Array2D with shape
// cols_local x nrows) so that column operations enjoy unit-stride access —
// i.e. the local block is held transposed.
//
// Redistribution is plan-based: RowsToColsPlan / ColsToRowsPlan compile the
// per-peer block ranges once and expose split begin/end phases (begin packs
// and sends every part without blocking; end receives and scatters), so a
// caller can compute between the phases. The redistribute() functions are
// the blocking wrappers.
//
// Thread-safety and ownership: a distributed matrix and a plan are owned by
// one rank (thread); begin adopts each outgoing part's buffer as immutable
// shared payload, and end borrows incoming payloads (no intermediate copy).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "meshspectral/plan.hpp"
#include "mpl/process.hpp"
#include "support/ndarray.hpp"
#include "support/partition.hpp"

namespace ppa::mesh {

/// Matrix distributed by contiguous blocks of rows over P processes.
template <mpl::Wire T>
class RowDistributed {
 public:
  RowDistributed() = default;
  RowDistributed(std::size_t nrows, std::size_t ncols, int nprocs, int rank)
      : nrows_(nrows),
        ncols_(ncols),
        rows_(block_range(nrows, static_cast<std::size_t>(nprocs),
                          static_cast<std::size_t>(rank))),
        local_(rows_.size(), ncols) {}

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  /// Global row range owned by this process.
  [[nodiscard]] Range rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t rows_local() const noexcept { return rows_.size(); }

  /// Local row r (global row rows().lo + r), contiguous.
  [[nodiscard]] std::span<T> row(std::size_t r) noexcept { return local_.row(r); }
  [[nodiscard]] std::span<const T> row(std::size_t r) const noexcept {
    return local_.row(r);
  }
  [[nodiscard]] T& at(std::size_t local_row, std::size_t col) noexcept {
    return local_(local_row, col);
  }
  [[nodiscard]] const T& at(std::size_t local_row, std::size_t col) const noexcept {
    return local_(local_row, col);
  }
  [[nodiscard]] Array2D<T>& local() noexcept { return local_; }
  [[nodiscard]] const Array2D<T>& local() const noexcept { return local_; }

  /// Fill from a function of global (row, col).
  template <typename F>
  void init_from_global(F&& f) {
    for (std::size_t r = 0; r < rows_local(); ++r) {
      for (std::size_t c = 0; c < ncols_; ++c) local_(r, c) = f(rows_.lo + r, c);
    }
  }

 private:
  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  Range rows_;
  Array2D<T> local_;
};

/// Matrix distributed by contiguous blocks of columns; local block stored
/// transposed (shape cols_local x nrows) for unit-stride column access.
template <mpl::Wire T>
class ColDistributed {
 public:
  ColDistributed() = default;
  ColDistributed(std::size_t nrows, std::size_t ncols, int nprocs, int rank)
      : nrows_(nrows),
        ncols_(ncols),
        cols_(block_range(ncols, static_cast<std::size_t>(nprocs),
                          static_cast<std::size_t>(rank))),
        local_(cols_.size(), nrows) {}

  [[nodiscard]] std::size_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] std::size_t ncols() const noexcept { return ncols_; }
  /// Global column range owned by this process.
  [[nodiscard]] Range cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t cols_local() const noexcept { return cols_.size(); }

  /// Local column c (global column cols().lo + c), contiguous.
  [[nodiscard]] std::span<T> col(std::size_t c) noexcept { return local_.row(c); }
  [[nodiscard]] std::span<const T> col(std::size_t c) const noexcept {
    return local_.row(c);
  }
  [[nodiscard]] T& at(std::size_t row, std::size_t local_col) noexcept {
    return local_(local_col, row);
  }
  [[nodiscard]] const T& at(std::size_t row, std::size_t local_col) const noexcept {
    return local_(local_col, row);
  }
  [[nodiscard]] Array2D<T>& local() noexcept { return local_; }
  [[nodiscard]] const Array2D<T>& local() const noexcept { return local_; }

 private:
  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  Range cols_;
  Array2D<T> local_;
};

namespace detail {

/// Common scaffolding of the two redistribution plans: matrix geometry,
/// tag bookkeeping (validated against the reserved redistribution tag
/// space), the snapshotted self part, and the single-flight state.
class RedistributePlanBase {
 public:
  [[nodiscard]] bool in_flight() const noexcept { return in_flight_; }

 protected:
  RedistributePlanBase() = default;
  RedistributePlanBase(int nprocs, int rank, std::size_t nrows,
                       std::size_t ncols, int tag_block)
      : nprocs_(nprocs),
        rank_(rank),
        nrows_(nrows),
        ncols_(ncols),
        tag_(kRedistributeTagBase + tag_block) {
    assert(tag_block >= 0 &&
           tag_block < kExchangeTagBlocks * kExchangeTagStride &&
           "redistribution plan: tag_block outside the reserved tag space");
  }

  void mark_begin(mpl::Process& p) {
    assert(!in_flight_ && "redistribution plan: begin without matching end");
    in_flight_ = true;
    p.trace().count_op(p.rank(), mpl::Op::kAlltoall);
  }
  void mark_end() {
    assert(in_flight_ && "redistribution plan: end without begin");
    in_flight_ = false;
  }

  int nprocs_ = 1;
  int rank_ = 0;
  std::size_t nrows_ = 0;
  std::size_t ncols_ = 0;
  int tag_ = kRedistributeTagBase;
  mpl::Payload self_part_;

 private:
  bool in_flight_ = false;
};

}  // namespace detail

/// Persistent split-phase plan for rows -> columns redistribution (paper
/// Fig 7): every process sends to every other process the intersection of
/// its rows with the destination's columns — a personalized all-to-all with
/// P*(P-1) messages. Compile once, reuse every transform. The plan is
/// geometry-only; begin/end are templated on the element type (begin and
/// its matching end must use the same type). At most one exchange per plan
/// may be in flight; plans concurrently in flight need distinct tag blocks.
class RowsToColsPlan : public detail::RedistributePlanBase {
 public:
  RowsToColsPlan() = default;
  RowsToColsPlan(int nprocs, int rank, std::size_t nrows, std::size_t ncols,
                 int tag_block = 0)
      : RedistributePlanBase(nprocs, rank, nrows, ncols, tag_block) {}

  /// Pack and send every peer's part (never blocks); the part kept for this
  /// rank is snapshotted into an internal payload.
  template <mpl::Wire T>
  void begin_exchange(mpl::Process& p, const RowDistributed<T>& in) {
    assert(in.nrows() == nrows_ && in.ncols() == ncols_ && p.size() == nprocs_);
    mark_begin(p);
    for (int q = 0; q < nprocs_; ++q) {
      const Range qcols = block_range(ncols_, static_cast<std::size_t>(nprocs_),
                                      static_cast<std::size_t>(q));
      std::vector<T> part;
      part.reserve(in.rows_local() * qcols.size());
      // Pack column-major within the part so the receiver can append rows
      // to its transposed storage directly: for each destination column,
      // all of our rows in row order.
      for (std::size_t c = qcols.lo; c < qcols.hi; ++c) {
        for (std::size_t r = 0; r < in.rows_local(); ++r) {
          part.push_back(in.at(r, c));
        }
      }
      if (q == rank_) {
        self_part_ = mpl::Payload::adopt(std::move(part));
      } else {
        p.send(q, tag_, std::move(part));
      }
    }
  }

  /// Receive every peer's part and scatter into the transposed block.
  template <mpl::Wire T>
  void end_exchange(mpl::Process& p, ColDistributed<T>& out) {
    assert(out.nrows() == nrows_ && out.ncols() == ncols_);
    mark_end();
    for (int s = 0; s < nprocs_; ++s) {
      const Range srows = block_range(nrows_, static_cast<std::size_t>(nprocs_),
                                      static_cast<std::size_t>(s));
      const auto scatter = [&](std::span<const T> buf) {
        assert(buf.size() == srows.size() * out.cols_local());
        std::size_t k = 0;
        for (std::size_t c = 0; c < out.cols_local(); ++c) {
          for (std::size_t r = srows.lo; r < srows.hi; ++r) {
            out.at(r, c) = buf[k++];
          }
        }
      };
      if (s == rank_) {
        scatter(mpl::payload_view<T>(self_part_));
      } else {
        const auto part = p.recv_borrow<T>(s, tag_);
        scatter(part.view());
      }
    }
    self_part_ = {};
  }

  template <mpl::Wire T>
  void exchange(mpl::Process& p, const RowDistributed<T>& in,
                ColDistributed<T>& out) {
    begin_exchange(p, in);
    end_exchange(p, out);
  }
};

/// Persistent split-phase plan for columns -> rows redistribution (the
/// inverse of RowsToColsPlan; same contracts).
class ColsToRowsPlan : public detail::RedistributePlanBase {
 public:
  ColsToRowsPlan() = default;
  ColsToRowsPlan(int nprocs, int rank, std::size_t nrows, std::size_t ncols,
                 int tag_block = 0)
      : RedistributePlanBase(nprocs, rank, nrows, ncols, tag_block) {}

  template <mpl::Wire T>
  void begin_exchange(mpl::Process& p, const ColDistributed<T>& in) {
    assert(in.nrows() == nrows_ && in.ncols() == ncols_ && p.size() == nprocs_);
    mark_begin(p);
    for (int q = 0; q < nprocs_; ++q) {
      const Range qrows = block_range(nrows_, static_cast<std::size_t>(nprocs_),
                                      static_cast<std::size_t>(q));
      std::vector<T> part;
      part.reserve(qrows.size() * in.cols_local());
      // Pack row-major within the part: for each destination row, all of
      // our columns in column order.
      for (std::size_t r = qrows.lo; r < qrows.hi; ++r) {
        for (std::size_t c = 0; c < in.cols_local(); ++c) {
          part.push_back(in.at(r, c));
        }
      }
      if (q == rank_) {
        self_part_ = mpl::Payload::adopt(std::move(part));
      } else {
        p.send(q, tag_, std::move(part));
      }
    }
  }

  template <mpl::Wire T>
  void end_exchange(mpl::Process& p, RowDistributed<T>& out) {
    assert(out.nrows() == nrows_ && out.ncols() == ncols_);
    mark_end();
    for (int s = 0; s < nprocs_; ++s) {
      const Range scols = block_range(ncols_, static_cast<std::size_t>(nprocs_),
                                      static_cast<std::size_t>(s));
      const auto scatter = [&](std::span<const T> buf) {
        assert(buf.size() == out.rows_local() * scols.size());
        std::size_t k = 0;
        for (std::size_t r = 0; r < out.rows_local(); ++r) {
          for (std::size_t c = scols.lo; c < scols.hi; ++c) {
            out.at(r, c) = buf[k++];
          }
        }
      };
      if (s == rank_) {
        scatter(mpl::payload_view<T>(self_part_));
      } else {
        const auto part = p.recv_borrow<T>(s, tag_);
        scatter(part.view());
      }
    }
    self_part_ = {};
  }

  template <mpl::Wire T>
  void exchange(mpl::Process& p, const ColDistributed<T>& in,
                RowDistributed<T>& out) {
    begin_exchange(p, in);
    end_exchange(p, out);
  }
};

/// Redistribute rows -> columns (blocking wrapper over RowsToColsPlan).
template <mpl::Wire T>
void redistribute(mpl::Process& p, const RowDistributed<T>& in,
                  ColDistributed<T>& out) {
  assert(in.nrows() == out.nrows() && in.ncols() == out.ncols());
  RowsToColsPlan plan(p.size(), p.rank(), in.nrows(), in.ncols());
  plan.exchange(p, in, out);
}

/// Redistribute columns -> rows (blocking wrapper over ColsToRowsPlan).
template <mpl::Wire T>
void redistribute(mpl::Process& p, const ColDistributed<T>& in,
                  RowDistributed<T>& out) {
  assert(in.nrows() == out.nrows() && in.ncols() == out.ncols());
  ColsToRowsPlan plan(p.size(), p.rank(), in.nrows(), in.ncols());
  plan.exchange(p, in, out);
}

/// Assemble a row-distributed matrix on the root process (rank order gives
/// global row order). Non-root processes receive an empty array.
template <mpl::Wire T>
Array2D<T> gather_matrix(mpl::Process& p, const RowDistributed<T>& mat, int root = 0) {
  auto flat = p.gather(mat.local().flat(), root);
  if (p.rank() != root) return {};
  Array2D<T> out(mat.nrows(), mat.ncols());
  assert(flat.size() == out.size());
  std::copy(flat.begin(), flat.end(), out.data());
  return out;
}

/// Scatter–transform–gather shell: give every rank its row block of a dense
/// `input`, run `transform(data)` collectively, and assemble the result on
/// `root` (non-root ranks return an empty array). This is the whole-problem
/// wrapper every row-distributed spectral driver shares — fft2d_spmd and the
/// compose-layer component adapters are this shell around fft2d_process.
template <mpl::Wire T, typename Transform>
Array2D<T> with_row_distribution(mpl::Process& p, const Array2D<T>& input,
                                 Transform&& transform, int root = 0) {
  RowDistributed<T> data(input.rows(), input.cols(), p.size(), p.rank());
  data.init_from_global(
      [&input](std::size_t r, std::size_t c) { return input(r, c); });
  transform(data);
  return gather_matrix(p, data, root);
}

}  // namespace ppa::mesh
