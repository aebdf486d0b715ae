#include "serve/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/models.hpp"
#include "obs/obs.hpp"

namespace rp::serve {

namespace {

/// Materializes one servable network from a cached state bundle, or nullptr
/// when the artifact is missing / was quarantined by the cache layer.
nn::NetworkPtr load_net(const FamilySpec& spec, exp::ArtifactCache& cache,
                        const std::string& key) {
  auto state = cache.get_state(key);
  if (!state) return nullptr;
  // The build seed is irrelevant: load_state overwrites every parameter,
  // mask, and batch-norm buffer with the artifact's values.
  auto net = nn::build_network(spec.arch, spec.task, /*seed=*/0);
  net->load_state(*state);
  net->enforce_masks();
  net->set_sparse(true);
  return net;
}

}  // namespace

ModelRegistry::ModelRegistry(const FamilySpec& spec, exp::ArtifactCache& cache) : spec_(spec) {
  const obs::Span span("serve.registry_load");
  auto parent = load_net(spec_, cache, spec_.parent_key);
  if (!parent) {
    throw std::runtime_error("serve: parent artifact '" + spec_.parent_key +
                             "' is missing or corrupt — a family cannot be served without its "
                             "dense fallback");
  }
  Variant p;
  p.key = spec_.parent_key;
  p.ratio = parent->prune_ratio();
  p.flops = parent->flops();
  p.net = std::move(parent);
  variants_.push_back(std::move(p));

  std::vector<Variant> pruned;
  for (const std::string& key : spec_.variant_keys) {
    auto net = load_net(spec_, cache, key);
    if (!net) {
      // Quarantine (and the obs cache.corrupt_quarantined count) happened
      // inside get_state; here the family just shrinks by one rung.
      ++dropped_;
      continue;
    }
    Variant v;
    v.key = key;
    v.ratio = net->prune_ratio();
    v.flops = net->flops();
    v.net = std::move(net);
    pruned.push_back(std::move(v));
  }
  // Ratio-ascending ladder behind the parent; stable so equal-ratio variants
  // keep their declared order and the load is deterministic.
  std::stable_sort(pruned.begin(), pruned.end(),
                   [](const Variant& a, const Variant& b) { return a.ratio < b.ratio; });
  for (auto& v : pruned) variants_.push_back(std::move(v));
}

}  // namespace rp::serve
