// Compatibility stub. The sketch hot paths are plain scalar loops with no
// kernel dispatch; this header survives only because the repository
// benchmark (perfbench/) still prints `active_kernels().name` in its host
// block. It goes at the next change to the benchmark. Nothing else
// includes it.
#pragma once

namespace skewless::simd {

struct SketchKernels {
  const char* name;
};

[[nodiscard]] inline const SketchKernels& active_kernels() {
  static constexpr SketchKernels kScalar{"scalar"};
  return kScalar;
}

}  // namespace skewless::simd
