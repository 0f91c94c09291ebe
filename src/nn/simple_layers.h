// Stateless / lightweight layers: ReLU, GlobalAvgPool2d.
#pragma once

#include "nn/layer.h"

namespace odn::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_mask_;  // 1 where input > 0
};

// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool2d final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool2d"; }

  // Only the input shape is cached.
  std::size_t backward_cache_bytes(std::size_t) const override { return 0; }

 private:
  Shape cached_input_shape_;
};

}  // namespace odn::nn
