#ifndef MEMO_TRAIN_ADAM_H_
#define MEMO_TRAIN_ADAM_H_

#include <vector>

#include "train/tensor.h"

namespace memo::train {

/// Standard Adam optimizer over a flat list of parameter tensors, at a
/// fixed learning rate.
class Adam {
 public:
  static constexpr double kLr = 1e-3;
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  /// Applies one step: params[i] -= lr * m_hat / (sqrt(v_hat) + eps).
  /// Moment buffers are created lazily on the first call; the tensor list
  /// must have a stable order and stable shapes across calls.
  void Step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads);

  /// Creates the moment buffers now, zeroed on the pool (no-op if they
  /// exist). The trainer calls this before entering the step-scoped arena
  /// so the long-lived moments never land in (and permanently widen) the
  /// per-step plan.
  void EnsureState(const std::vector<Tensor*>& params);

  int step_count() const { return step_; }

  /// Moment buffers for checkpointing (empty until the first Step).
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

  /// Restores the optimizer mid-run (checkpoint resume). The moment lists
  /// must either be empty (no Step had run yet) or mirror the parameter
  /// list the next Step will be called with.
  void RestoreState(int step, std::vector<Tensor>&& m,
                    std::vector<Tensor>&& v) {
    step_ = step;
    m_ = std::move(m);
    v_ = std::move(v);
  }

 private:
  int step_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace memo::train

#endif  // MEMO_TRAIN_ADAM_H_
