#include "nn/simple_layers.h"

#include <stdexcept>

namespace odn::nn {

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor output(input.shape());
  if (training) cached_mask_ = Tensor(input.shape());
  const auto in = input.data();
  auto out = output.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const bool active = in[i] > 0.0f;
    out[i] = active ? in[i] : 0.0f;
    if (training) cached_mask_[i] = active ? 1.0f : 0.0f;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_mask_.empty())
    throw std::logic_error("ReLU: backward without training forward");
  Tensor grad_input(grad_output.shape());
  for (std::size_t i = 0; i < grad_input.size(); ++i)
    grad_input[i] = grad_output[i] * cached_mask_[i];
  return grad_input;
}

Tensor GlobalAvgPool2d::forward(const Tensor& input, bool training) {
  const std::size_t batch = input.shape()[0];
  const std::size_t channels = input.shape()[1];
  const std::size_t height = input.shape()[2];
  const std::size_t width = input.shape()[3];
  const float denom = static_cast<float>(height * width);

  Tensor output({batch, channels});
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < channels; ++c) {
      float sum = 0.0f;
      for (std::size_t h = 0; h < height; ++h)
        for (std::size_t w = 0; w < width; ++w) sum += input.at4(n, c, h, w);
      output.at2(n, c) = sum / denom;
    }
  if (training) cached_input_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.rank() != 4)
    throw std::logic_error(
        "GlobalAvgPool2d: backward without training forward");
  const std::size_t batch = cached_input_shape_[0];
  const std::size_t channels = cached_input_shape_[1];
  const std::size_t height = cached_input_shape_[2];
  const std::size_t width = cached_input_shape_[3];
  const float denom = static_cast<float>(height * width);

  Tensor grad_input(cached_input_shape_);
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < channels; ++c) {
      const float spread = grad_output.at2(n, c) / denom;
      for (std::size_t h = 0; h < height; ++h)
        for (std::size_t w = 0; w < width; ++w)
          grad_input.at4(n, c, h, w) = spread;
    }
  return grad_input;
}

}  // namespace odn::nn
