#include "train/adam.h"

#include <cmath>

#include "common/thread_pool.h"
#include "train/kernels/kernels.h"

namespace memo::train {

namespace {
/// Elements per parallel chunk. Fixed (like the ops.cc grains) so chunk
/// boundaries — and therefore the SIMD tail positions inside each chunk —
/// depend only on the tensor size, never on the pool.
constexpr std::int64_t kAdamGrain = 4096;
}  // namespace

void Adam::EnsureState(const std::vector<Tensor*>& params) {
  if (!m_.empty()) return;
  for (const Tensor* p : params) {
    m_.push_back(Tensor::Uninitialized(p->rows(), p->cols()));
    v_.push_back(Tensor::Uninitialized(p->rows(), p->cols()));
  }
  std::vector<Tensor*> moments;
  for (std::vector<Tensor>* list : {&m_, &v_}) {
    for (Tensor& t : *list) moments.push_back(&t);
  }
  FillZeros(moments);
}

void Adam::Step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  MEMO_CHECK_EQ(params.size(), grads.size());
  EnsureState(params);
  MEMO_CHECK_EQ(params.size(), m_.size());
  ++step_;
  const double bias1 = 1.0 - std::pow(kBeta1, step_);
  const double bias2 = 1.0 - std::pow(kBeta2, step_);
  const kernels::KernelTable& K = kernels::Active();
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& p = *params[t];
    const Tensor& g = *grads[t];
    MEMO_CHECK_EQ(p.size(), g.size());
    Tensor& m = m_[t];
    Tensor& v = v_[t];
    // The update is elementwise, so disjoint chunks are race-free; the
    // scalar kernel keeps the reference's double-precision moment math
    // bit for bit, the SIMD tables run the same formula in float.
    ThreadPool::Global().ParallelFor(
        0, p.size(), kAdamGrain, [&](std::int64_t i0, std::int64_t i1) {
          K.adam_update(p.data() + i0, m.data() + i0, v.data() + i0,
                        g.data() + i0, i1 - i0, kBeta1, kBeta2, kLr, kEps,
                        bias1, bias2);
        });
  }
}

}  // namespace memo::train
