// Layer interface for the explicit forward/backward DNN substrate.
//
// No autograd: each layer caches what its backward pass needs during
// forward(training=true) and implements its gradient math directly. A layer
// can be frozen (paper: "shared" blocks) — frozen layers still propagate
// input gradients so that trainable layers *below* them could learn, but
// they do not accumulate parameter gradients and the trainer skips their
// parameters when stepping the optimizer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace odn::nn {

// A learnable parameter: value plus its gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;

  void zero_grad() { grad.fill(0.0f); }
  std::size_t element_count() const noexcept { return value.size(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass. When `training` is true the layer caches activations for
  // backward and uses training-mode statistics (BatchNorm).
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  // Backward pass: consumes dL/d(output), returns dL/d(input) and, unless
  // frozen, accumulates dL/d(params) into the Param::grad buffers. Must be
  // preceded by forward(input, /*training=*/true).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Learnable parameters (empty for stateless layers).
  virtual std::vector<Param*> parameters() { return {}; }

  virtual std::string name() const = 0;

  // Parameter initialization; default no-op for stateless layers.
  virtual void init_parameters(util::Rng& /*rng*/) {}

  // Bytes of activation the layer must cache for its backward pass on a
  // batch of the given input element count. Used by the training-memory
  // model that reproduces Fig. 2 (right).
  virtual std::size_t backward_cache_bytes(std::size_t input_elements) const {
    return input_elements * sizeof(float);
  }

  void set_frozen(bool frozen) noexcept { frozen_ = frozen; }
  bool frozen() const noexcept { return frozen_; }

  std::size_t parameter_count() {
    std::size_t total = 0;
    for (const Param* p : parameters()) total += p->element_count();
    return total;
  }

  void zero_grad() {
    for (Param* p : parameters()) p->zero_grad();
  }

 protected:
  bool frozen_ = false;
};

}  // namespace odn::nn
