#ifndef MEMO_TRAIN_MINI_GPT_H_
#define MEMO_TRAIN_MINI_GPT_H_

#include <vector>

#include "train/activation_store.h"
#include "train/ops.h"
#include "train/tensor.h"

namespace memo::train {

/// Architecture of the numeric mini-GPT (a scaled-down Table 2 model:
/// pre-norm decoder blocks, causal attention, 4x GELU FFN, untied
/// classifier).
struct MiniGptConfig {
  int layers = 2;
  int hidden = 32;
  int heads = 4;
  int ffn = 128;
  int vocab = 64;
  int seq = 64;
};

/// All trainable parameters.
struct MiniGptParams {
  Tensor embedding;  // [vocab, h]
  std::vector<LayerParams> layers;
  Tensor lnf_g, lnf_b;  // final LayerNorm
  Tensor w_cls;         // [h, vocab]

  /// Deterministic initialization: LayerNorm gains 1, biases 0, and every
  /// weight matrix drawn from N(0, 0.08^2) by one FillGaussian over the
  /// weights in declaration order (embedding, each layer's wq wk wv wo w1
  /// w2, w_cls). The values equal serial NextGaussian draws from Rng(seed)
  /// at every pool size.
  static MiniGptParams Init(const MiniGptConfig& config, std::uint64_t seed);

  /// Init's shapes with every element 0: the gradient accumulators, which
  /// MiniGpt::ForwardBackward expects pre-zeroed.
  static MiniGptParams Zeros(const MiniGptConfig& config);

  /// Init's shapes, contents unwritten: for parameters about to be
  /// overwritten whole (a checkpoint's, on resume).
  static MiniGptParams Uninitialized(const MiniGptConfig& config);

  /// Flat view over every parameter tensor, in declaration order; a
  /// gradient set's Flat() lines up with its parameters' element for
  /// element.
  std::vector<Tensor*> Flat();
};

/// The mini-GPT model: explicit forward and backward passes routed through
/// an ActivationStore, so the token-wise recomputation path is exercised on
/// real numbers.
class MiniGpt {
 public:
  explicit MiniGpt(const MiniGptConfig& config) : config_(config) {}

  /// Runs one forward+backward over a single sequence. Returns the mean
  /// cross-entropy loss and accumulates parameter gradients into `grads`
  /// (which must mirror `params` in shape and be pre-zeroed by the caller).
  /// Aborts on a stash/restore failure — callers that can recover (the
  /// fault-tolerant trainer) use TryForwardBackward instead.
  double ForwardBackward(const MiniGptParams& params,
                         const std::vector<int>& tokens,
                         const std::vector<int>& targets,
                         ActivationStore* store, MiniGptParams* grads) const;

  /// Like ForwardBackward, but a stash/restore failure surfaces as the
  /// backend's Status instead of aborting. On failure `grads` holds a
  /// partial accumulation and must be re-zeroed before reuse.
  StatusOr<double> TryForwardBackward(const MiniGptParams& params,
                                      const std::vector<int>& tokens,
                                      const std::vector<int>& targets,
                                      ActivationStore* store,
                                      MiniGptParams* grads) const;

  /// Forward-only loss (evaluation).
  double Loss(const MiniGptParams& params, const std::vector<int>& tokens,
              const std::vector<int>& targets) const;

  const MiniGptConfig& config() const { return config_; }

 private:
  MiniGptConfig config_;
};

}  // namespace memo::train

#endif  // MEMO_TRAIN_MINI_GPT_H_
