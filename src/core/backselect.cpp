#include "core/backselect.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace rp::core {

namespace {

/// Probability of `cls` for every image of a [B, C, H, W] stack, evaluated
/// in minibatches.
std::vector<float> class_probs(nn::Network& net, const Tensor& images, int64_t cls, int batch) {
  const int64_t n = images.size(0);
  const int64_t rowsz = images.numel() / n;
  const float* src = images.data().data();
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t start = 0; start < n; start += batch) {
    const int64_t end = std::min<int64_t>(start + batch, n);
    Tensor chunk = Tensor::scratch_copy(
        Shape{end - start, images.size(1), images.size(2), images.size(3)}, src + start * rowsz);
    const Tensor probs = softmax_rows(net.forward(chunk, /*train=*/false));
    for (int64_t i = start; i < end; ++i) out[static_cast<size_t>(i)] = probs.at(i - start, cls);
  }
  return out;
}

void fill_pixel(Tensor& image, int64_t pixel, float fill) {
  const int64_t plane = image.size(1) * image.size(2);
  for (int64_t c = 0; c < image.size(0); ++c) image[c * plane + pixel] = fill;
}

}  // namespace

std::vector<int64_t> backselect_order(nn::Network& net, const Tensor& image, int64_t target_class,
                                      const BackSelectConfig& cfg) {
  if (image.ndim() != 3) throw std::invalid_argument("backselect_order: expected [C, H, W]");
  if (cfg.chunk < 1) throw std::invalid_argument("backselect_order: chunk must be >= 1");
  const int64_t npix = image.size(1) * image.size(2);

  Tensor current = image;
  std::vector<int64_t> remaining(static_cast<size_t>(npix));
  std::iota(remaining.begin(), remaining.end(), 0);
  std::vector<int64_t> order;
  order.reserve(static_cast<size_t>(npix));

  while (!remaining.empty()) {
    // Evaluate the confidence after masking each remaining pixel alone.
    Tensor candidates = Tensor::scratch(
        Shape{static_cast<int64_t>(remaining.size()), image.size(0), image.size(1), image.size(2)});
    const int64_t csize = current.numel();
    const int64_t plane = image.size(1) * image.size(2);
    float* cd = candidates.data().data();
    for (size_t i = 0; i < remaining.size(); ++i) {
      float* row = cd + static_cast<int64_t>(i) * csize;
      std::memcpy(row, current.data().data(), static_cast<size_t>(csize) * sizeof(float));
      for (int64_t c = 0; c < image.size(0); ++c) row[c * plane + remaining[i]] = cfg.fill;
    }
    const auto probs = class_probs(net, candidates, target_class, cfg.batch);

    // Remove the `chunk` pixels whose masking hurts confidence the least.
    const size_t k = std::min<size_t>(static_cast<size_t>(cfg.chunk), remaining.size());
    std::vector<size_t> idx(remaining.size());
    std::iota(idx.begin(), idx.end(), size_t{0});
    std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                      [&](size_t a, size_t b) { return probs[a] > probs[b]; });

    std::vector<int64_t> removed;
    removed.reserve(k);
    for (size_t i = 0; i < k; ++i) removed.push_back(remaining[idx[i]]);
    for (int64_t p : removed) {
      fill_pixel(current, p, cfg.fill);
      order.push_back(p);
    }
    std::erase_if(remaining, [&](int64_t p) {
      return std::find(removed.begin(), removed.end(), p) != removed.end();
    });
  }
  return order;
}

std::vector<uint8_t> informative_mask(std::span<const int64_t> order, double keep_fraction) {
  if (keep_fraction < 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("informative_mask: keep_fraction must be in [0, 1]");
  }
  const size_t npix = order.size();
  const auto keep = static_cast<size_t>(keep_fraction * static_cast<double>(npix) + 0.5);
  std::vector<uint8_t> mask(npix, 0);
  // The order is ascending informativeness: keep the tail.
  for (size_t i = npix - keep; i < npix; ++i) mask[static_cast<size_t>(order[i])] = 1;
  return mask;
}

Tensor apply_pixel_mask(const Tensor& image, std::span<const uint8_t> keep, float fill) {
  const int64_t plane = image.size(1) * image.size(2);
  if (static_cast<int64_t>(keep.size()) != plane) {
    throw std::invalid_argument("apply_pixel_mask: mask size mismatch");
  }
  Tensor out = image;
  for (int64_t p = 0; p < plane; ++p) {
    if (!keep[static_cast<size_t>(p)]) fill_pixel(out, p, fill);
  }
  return out;
}

float confidence(nn::Network& net, const Tensor& image, int64_t cls) {
  Tensor batch = Tensor::scratch(Shape{1, image.size(0), image.size(1), image.size(2)});
  batch.set_slice0(0, image);
  const Tensor probs = softmax_rows(net.forward(batch, /*train=*/false));
  return probs.at(0, cls);
}

Tensor informative_feature_matrix(std::span<const ModelRef> models, const data::Dataset& ds,
                                  int64_t n_images, double keep_fraction,
                                  const BackSelectConfig& cfg) {
  const auto m = static_cast<int64_t>(models.size());
  n_images = std::min<int64_t>(n_images, ds.size());
  Tensor matrix(Shape{m, m});

  for (int64_t i = 0; i < n_images; ++i) {
    const Tensor image = ds.image(i);
    const int64_t true_class = ds.label(i);
    for (int64_t g = 0; g < m; ++g) {
      nn::Network& gen = *models[static_cast<size_t>(g)].net;
      // Informative pixels are selected w.r.t. the generator's *prediction*.
      int64_t pred = 0;
      {
        Tensor single = Tensor::scratch(Shape{1, image.size(0), image.size(1), image.size(2)});
        single.set_slice0(0, image);
        argmax_rows_into(gen.forward(single, /*train=*/false), {&pred, 1});
      }

      const auto order = backselect_order(gen, image, pred, cfg);
      const auto mask = informative_mask(order, keep_fraction);
      const Tensor masked = apply_pixel_mask(image, mask, cfg.fill);

      for (int64_t e = 0; e < m; ++e) {
        matrix.at(g, e) +=
            confidence(*models[static_cast<size_t>(e)].net, masked, true_class);
      }
    }
  }
  matrix *= (1.0f / static_cast<float>(n_images));
  return matrix;
}

}  // namespace rp::core
