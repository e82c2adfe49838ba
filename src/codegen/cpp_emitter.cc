#include "codegen/cpp_emitter.h"

#include <sstream>

#include "common/logging.h"

namespace treebeard::codegen {

namespace {

using hir::TreeGroup;
using lir::ForestBuffers;
using lir::LayoutKind;

/** Format a valid C++ float literal that round-trips exactly. */
std::string
floatLiteral(float value)
{
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    std::string text(buffer);
    if (text.find('.') == std::string::npos &&
        text.find('e') == std::string::npos) {
        text += ".0";
    }
    return text + "f";
}

/**
 * Emit the scalar slot-by-slot outcome computation. Expects locals
 * `th` (thresholds), `fi` (feature indices) and `dl` (default-left
 * bits) in scope; defines `outcome`.
 */
void
emitScalarOutcome(std::ostringstream &os, int32_t nt)
{
    os << "  unsigned outcome = 0;\n";
    for (int32_t s = 0; s < nt; ++s) {
        // NaN (v != v) routes per the tile's default-direction bits.
        os << "  { float v = row[fi[" << s << "]]; outcome |= "
           << "(unsigned)(v < th[" << s << "] || (v != v && ((dl >> "
           << s << ") & 1u))) << " << s << "; }\n";
    }
}

/**
 * Emit the AVX2 gather/compare/movemask outcome computation — the
 * same instruction sequence the kernel runtime's evalTile uses — for
 * tile sizes 4 and 8, guarded so the translation unit still compiles
 * without -mavx2 (the scalar path then follows in the #else branch).
 * @p features16 widens int16 feature indices (the packed layout's
 * record field) before the gather. Returns false for tile sizes with
 * no vector sequence; the caller then emits the scalar path alone.
 */
bool
emitAvx2Outcome(std::ostringstream &os, int32_t nt, bool features16)
{
    if (nt != 4 && nt != 8)
        return false;
    os << "#if defined(__AVX2__)\n";
    if (nt == 8) {
        os << "  __m256 thv = _mm256_loadu_ps(th);\n";
        if (features16) {
            os << "  __m256i fiv = _mm256_cvtepi16_epi32("
                  "_mm_loadu_si128((const __m128i*)fi));\n";
        } else {
            os << "  __m256i fiv = "
                  "_mm256_loadu_si256((const __m256i*)fi);\n";
        }
        os << "  __m256 fv = _mm256_i32gather_ps(row, fiv, 4);\n";
        os << "  unsigned outcome = (unsigned)_mm256_movemask_ps("
              "_mm256_cmp_ps(fv, thv, _CMP_LT_OQ));\n";
        // Missing (NaN) lanes compare false above; route them per the
        // tile's default-direction bits instead.
        os << "  outcome |= (unsigned)_mm256_movemask_ps("
              "_mm256_cmp_ps(fv, fv, _CMP_UNORD_Q)) & dl;\n";
    } else {
        os << "  __m128 thv = _mm_loadu_ps(th);\n";
        if (features16) {
            os << "  __m128i fiv = _mm_cvtepi16_epi32("
                  "_mm_loadl_epi64((const __m128i*)fi));\n";
        } else {
            os << "  __m128i fiv = "
                  "_mm_loadu_si128((const __m128i*)fi);\n";
        }
        os << "  __m128 fv = _mm_i32gather_ps(row, fiv, 4);\n";
        os << "  unsigned outcome = (unsigned)_mm_movemask_ps("
              "_mm_cmplt_ps(fv, thv));\n";
        os << "  outcome |= (unsigned)_mm_movemask_ps("
              "_mm_cmpunord_ps(fv, fv)) & dl;\n";
    }
    os << "#else\n";
    return true;
}

/** Emit the vector-or-scalar outcome computation for the tile size. */
void
emitOutcome(std::ostringstream &os, int32_t nt, bool features16)
{
    if (emitAvx2Outcome(os, nt, features16)) {
        emitScalarOutcome(os, nt);
        os << "#endif\n";
    } else {
        emitScalarOutcome(os, nt);
    }
}

/**
 * Emit the scalar outcome computation for the quantized packed record:
 * an int16 compare per slot, with the kQuantizedNaN sentinel routed by
 * the default-direction bits. Expects locals `th` (int16 thresholds),
 * `fi` (uint8 feature indices) and `dl` in scope.
 */
void
emitQuantizedScalarOutcome(std::ostringstream &os, int32_t nt)
{
    os << "  unsigned outcome = 0;\n";
    for (int32_t s = 0; s < nt; ++s) {
        os << "  { int32_t v = qrow[fi[" << s << "]]; outcome |= "
           << "(unsigned)(v < (int32_t)th[" << s << "] || (v == "
           << lir::kQuantizedNaN << " && ((dl >> " << s
           << ") & 1u))) << " << s << "; }\n";
    }
}

/**
 * Emit the AVX2 int16 compare for the quantized packed record — the
 * same instruction sequence the kernel runtime's evalTilePackedQuantized
 * uses. All operations are exact integer ops, so kernel and generated
 * code agree bit-for-bit. Returns false for tile sizes with no vector
 * sequence.
 */
bool
emitQuantizedAvx2Outcome(std::ostringstream &os, int32_t nt)
{
    if (nt != 4 && nt != 8)
        return false;
    os << "#if defined(__AVX2__)\n";
    if (nt == 8) {
        // Sign-extend thresholds to int32 (off the gather's critical
        // path) and compare in epi32 — outcome-identical to an int16
        // compare since both sides are in int16 range.
        os << "  __m256i thv = _mm256_cvtepi16_epi32("
              "_mm_loadu_si128((const __m128i*)th));\n";
        os << "  __m256i fiv = _mm256_cvtepu8_epi32("
              "_mm_loadl_epi64((const __m128i*)fi));\n";
        os << "  __m256i qv = _mm256_i32gather_epi32(qrow, fiv, 4);\n";
        os << "  __m256i ltv = _mm256_cmpgt_epi32(thv, qv);\n";
        os << "  unsigned outcome = (unsigned)_mm256_movemask_ps("
              "_mm256_castsi256_ps(ltv));\n";
        os << "  __m256i missv = _mm256_cmpeq_epi32(qv, "
              "_mm256_set1_epi32("
           << lir::kQuantizedNaN << "));\n";
        os << "  outcome |= (unsigned)_mm256_movemask_ps("
              "_mm256_castsi256_ps(missv)) & dl;\n";
    } else {
        os << "  __m128i thv = _mm_cvtepi16_epi32("
              "_mm_loadl_epi64((const __m128i*)th));\n";
        os << "  uint32_t fib; __builtin_memcpy(&fib, fi, 4);\n";
        os << "  __m128i fiv = _mm_cvtepu8_epi32("
              "_mm_cvtsi32_si128((int32_t)fib));\n";
        os << "  __m128i qv = _mm_i32gather_epi32(qrow, fiv, 4);\n";
        os << "  __m128i ltv = _mm_cmpgt_epi32(thv, qv);\n";
        os << "  unsigned outcome = (unsigned)_mm_movemask_ps("
              "_mm_castsi128_ps(ltv));\n";
        os << "  __m128i missv = _mm_cmpeq_epi32(qv, _mm_set1_epi32("
           << lir::kQuantizedNaN << "));\n";
        os << "  outcome |= (unsigned)_mm_movemask_ps("
              "_mm_castsi128_ps(missv)) & dl;\n";
    }
    os << "#else\n";
    return true;
}

/** Emit the quantized vector-or-scalar outcome computation. */
void
emitQuantizedOutcome(std::ostringstream &os, int32_t nt)
{
    if (emitQuantizedAvx2Outcome(os, nt)) {
        emitQuantizedScalarOutcome(os, nt);
        os << "#endif\n";
    } else {
        emitQuantizedScalarOutcome(os, nt);
    }
}

/** Emit the tile-evaluation helper specialized for the tile size. */
void
emitEvalTile(std::ostringstream &os, const ForestBuffers &fb)
{
    int32_t nt = fb.tileSize;
    if (fb.layout == LayoutKind::kPackedQuantized) {
        // One 32-byte (tile-8) record per tile; the row has been
        // pre-quantized into one int32 per feature.
        os << "static inline int evalTile(const unsigned char* rec, "
              "const int32_t* qrow, const int8_t* lut) {\n";
        os << "  const int16_t* th = (const int16_t*)rec;\n";
        os << "  const uint8_t* fi = rec + "
           << lir::packedqFeaturesOffset(nt) << ";\n";
        os << "  int16_t shape; __builtin_memcpy(&shape, rec + "
           << lir::packedqShapeOffset(nt) << ", 2);\n";
        os << "  unsigned dl = rec["
           << lir::packedqDefaultLeftOffset(nt) << "];\n";
        emitQuantizedOutcome(os, nt);
        os << "  return lut[(size_t)shape * "
           << fb.shapes->lutStride() << " + outcome];\n";
        os << "}\n\n";
        os << "static inline int32_t childBase(const unsigned char* "
              "rec) {\n"
              "  int32_t b; __builtin_memcpy(&b, rec + "
           << lir::packedqChildBaseOffset(nt) << ", 4); return b;\n"
              "}\n\n";
        return;
    }
    if (fb.layout == LayoutKind::kPacked) {
        // One fixed-stride record per tile; offsets are baked in.
        os << "static inline int evalTile(const unsigned char* rec, "
              "const float* row, const int8_t* lut) {\n";
        os << "  const float* th = (const float*)rec;\n";
        os << "  const int16_t* fi = (const int16_t*)(rec + "
           << lir::packedFeaturesOffset(nt) << ");\n";
        os << "  int16_t shape; __builtin_memcpy(&shape, rec + "
           << lir::packedShapeOffset(nt) << ", 2);\n";
        os << "  unsigned dl = rec["
           << lir::packedDefaultLeftOffset(nt) << "];\n";
        emitOutcome(os, nt, /*features16=*/true);
        os << "  return lut[(size_t)shape * "
           << fb.shapes->lutStride() << " + outcome];\n";
        os << "}\n\n";
        os << "static inline int32_t childBase(const unsigned char* "
              "rec) {\n"
              "  int32_t b; __builtin_memcpy(&b, rec + "
           << lir::packedChildBaseOffset(nt) << ", 4); return b;\n"
              "}\n\n";
        return;
    }
    os << "static inline int evalTile(int64_t tile, const float* row,\n"
          "    const float* thresholds, const int32_t* features,\n"
          "    const int16_t* shape_ids, const uint8_t* default_left,\n"
          "    const int8_t* lut) {\n";
    os << "  const float* th = thresholds + tile * " << nt << ";\n";
    os << "  const int32_t* fi = features + tile * " << nt << ";\n";
    os << "  unsigned dl = default_left[tile];\n";
    emitOutcome(os, nt, /*features16=*/false);
    os << "  return lut[(size_t)shape_ids[tile] * " << fb.shapes->lutStride()
       << " + outcome];\n";
    os << "}\n\n";
}

/** Emit a single walk returning the leaf value; specialized per group. */
void
emitWalkFunction(std::ostringstream &os, const ForestBuffers &fb,
                 const TreeGroup &group, size_t group_index)
{
    bool sparse = fb.layout == LayoutKind::kSparse;
    int32_t nt = fb.tileSize;
    if (lir::isPackedKind(fb.layout)) {
        bool quantized = fb.layout == LayoutKind::kPackedQuantized;
        int32_t stride = quantized ? lir::packedqTileStride(nt)
                                   : lir::packedTileStride(nt);
        os << "static inline float walk_group_" << group_index
           << "(int64_t root, "
           << (quantized ? "const int32_t* row" : "const float* row")
           << ",\n"
              "    const unsigned char* packed, const float* leaves, "
              "const int8_t* lut) {\n";
        os << "  int64_t tile = root;\n";
        os << "  const unsigned char* rec;\n";
        if (group.unrolledWalk) {
            for (int32_t d = 0; d + 1 < group.walkDepth; ++d) {
                os << "  rec = packed + tile * " << stride
                   << "; tile = childBase(rec) + evalTile(rec, row, "
                      "lut);\n";
            }
            os << "  rec = packed + tile * " << stride << ";\n";
            os << "  int child = evalTile(rec, row, lut);\n";
            os << "  return leaves[-(childBase(rec) + 1) + child];\n";
        } else {
            for (int32_t d = 0; d + 1 < group.peelDepth; ++d) {
                os << "  rec = packed + tile * " << stride
                   << "; tile = childBase(rec) + evalTile(rec, row, "
                      "lut);\n";
            }
            os << "  for (;;) {\n";
            os << "    rec = packed + tile * " << stride << ";\n";
            os << "    int32_t base = childBase(rec);\n";
            // Prefetch both candidate child records while the
            // predicates evaluate.
            os << "    if (base >= 0) {\n";
            os << "      __builtin_prefetch(packed + (int64_t)base * "
               << stride << ", 0, 3);\n";
            os << "      __builtin_prefetch(packed + ((int64_t)base + "
               << nt << ") * " << stride << ", 0, 3);\n";
            os << "    }\n";
            os << "    int child = evalTile(rec, row, lut);\n";
            os << "    if (base < 0) return leaves[-(base + 1) + "
                  "child];\n";
            os << "    tile = base + child;\n";
            os << "  }\n";
        }
        os << "}\n\n";
        return;
    }
    os << "static inline float walk_group_" << group_index
       << "(int64_t root, const float* row,\n"
          "    const float* thresholds, const int32_t* features,\n"
          "    const int16_t* shape_ids, const uint8_t* default_left,\n"
          "    const int32_t* child_base,\n"
          "    const float* leaves, const int8_t* lut) {\n";
    if (sparse) {
        os << "  int64_t tile = root;\n";
        if (group.unrolledWalk) {
            // Exactly walkDepth evaluations, no termination checks.
            for (int32_t d = 0; d + 1 < group.walkDepth; ++d) {
                os << "  tile = child_base[tile] + evalTile(tile, row, "
                      "thresholds, features, shape_ids, default_left, lut);\n";
            }
            os << "  int child = evalTile(tile, row, thresholds, "
                  "features, shape_ids, default_left, lut);\n";
            os << "  return leaves[-(child_base[tile] + 1) + child];\n";
        } else {
            for (int32_t d = 0; d + 1 < group.peelDepth; ++d) {
                os << "  tile = child_base[tile] + evalTile(tile, row, "
                      "thresholds, features, shape_ids, default_left, lut);\n";
            }
            os << "  for (;;) {\n";
            os << "    int child = evalTile(tile, row, thresholds, "
                  "features, shape_ids, default_left, lut);\n";
            os << "    int32_t base = child_base[tile];\n";
            os << "    if (base < 0) return leaves[-(base + 1) + "
                  "child];\n";
            os << "    tile = base + child;\n";
            os << "  }\n";
        }
    } else {
        os << "  int64_t local = 0;\n";
        os << "  (void)child_base; (void)leaves;\n";
        if (group.unrolledWalk) {
            for (int32_t d = 0; d < group.walkDepth; ++d) {
                os << "  local = " << (nt + 1)
                   << " * local + evalTile(root + local, row, "
                      "thresholds, features, shape_ids, default_left, lut) + 1;\n";
            }
            os << "  return thresholds[(root + local) * " << nt << "];\n";
        } else {
            for (int32_t d = 0; d < group.peelDepth; ++d) {
                os << "  local = " << (nt + 1)
                   << " * local + evalTile(root + local, row, "
                      "thresholds, features, shape_ids, default_left, lut) + 1;\n";
            }
            os << "  for (;;) {\n";
            os << "    int64_t tile = root + local;\n";
            os << "    if (shape_ids[tile] == " << lir::kLeafTileMarker
               << ") return thresholds[tile * " << nt << "];\n";
            os << "    local = " << (nt + 1)
               << " * local + evalTile(tile, row, thresholds, features, "
                  "shape_ids, default_left, lut) + 1;\n";
            os << "  }\n";
        }
    }
    os << "}\n\n";
}

/**
 * Emit the row-parallel lane-group walker for one tree group
 * (TraversalKind::kRowParallel, tile size 1 only): 8 consecutive rows
 * walk one tree in lockstep, one AVX2 lane per row, mirroring the
 * kernel runtime's walkSparseRows8 / walkPackedRows8 /
 * walkPackedQuantizedRows8 instruction for instruction. Without AVX2
 * the function degrades to 8 scalar walk_group_<g> calls — the same
 * leaves in the same order, so predictions are unchanged.
 */
void
emitRowParallelWalkFunction(std::ostringstream &os,
                            const ForestBuffers &fb,
                            const TreeGroup &group, size_t group_index)
{
    int32_t nf = fb.numFeatures;
    bool quantized = fb.layout == LayoutKind::kPackedQuantized;
    bool packed = lir::isPackedKind(fb.layout);
    // Leaf-test-free prefix carried over from the walk shape: an
    // unrolled walk has exactly walkDepth levels, a peeled one at
    // least peelDepth.
    int32_t unchecked =
        group.unrolledWalk
            ? group.walkDepth - 1
            : (group.peelDepth > 1 ? group.peelDepth - 1 : 0);

    os << "static inline void walk_group_" << group_index
       << "_rows8(int64_t root, "
       << (quantized ? "const int32_t* rows" : "const float* rows");
    if (packed) {
        os << ",\n    const unsigned char* packed, const float* "
              "leaves, const int8_t* lut, float* out) {\n";
    } else {
        os << ",\n    const float* thresholds, const int32_t* "
              "features,\n"
              "    const int16_t* shape_ids, const uint8_t* "
              "default_left,\n"
              "    const int32_t* child_base, const float* leaves, "
              "const int8_t* lut,\n"
              "    const int32_t* default_left32, float* out) {\n";
    }
    os << "#if defined(__AVX2__)\n";
    if (!packed)
        os << "  (void)shape_ids; (void)default_left;\n";
    os << "  const __m256i lane_row = _mm256_mullo_epi32("
          "_mm256_setr_epi32(0,1,2,3,4,5,6,7), _mm256_set1_epi32("
       << nf << "));\n";
    // Tile size 1 has a single shape (id 0): the LUT collapses to the
    // child on predicate-false vs predicate-true.
    os << "  const __m256i child_false = _mm256_set1_epi32(lut[0]);\n";
    os << "  const __m256i child_true = _mm256_set1_epi32(lut[1]);\n";
    os << "  const __m256i ones = _mm256_set1_epi32(1);\n";
    os << "  __m256i tile = _mm256_set1_epi32((int32_t)root);\n";
    if (quantized) {
        os << "  const int32_t* pd = (const int32_t*)packed;\n";
        // 16-byte record: word 0 = int16 threshold | uint8 feature,
        // word 1 = shape | default-left byte, word 2 = child base.
        os << "  auto step = [&](__m256i t, __m256i* base) {\n";
        os << "    __m256i w = _mm256_slli_epi32(t, 2);\n";
        os << "    __m256i w0 = _mm256_i32gather_epi32(pd, w, 4);\n";
        os << "    __m256i th = _mm256_srai_epi32("
              "_mm256_slli_epi32(w0, 16), 16);\n";
        os << "    __m256i fi = _mm256_and_si256("
              "_mm256_srli_epi32(w0, 16), _mm256_set1_epi32(0xff));\n";
        os << "    __m256i qv = _mm256_i32gather_epi32(rows, "
              "_mm256_add_epi32(fi, lane_row), 4);\n";
        os << "    __m256i go_left = _mm256_cmpgt_epi32(th, qv);\n";
        os << "    __m256i missing = _mm256_cmpeq_epi32(qv, "
              "_mm256_set1_epi32("
           << lir::kQuantizedNaN << "));\n";
        os << "    __m256i w1 = _mm256_i32gather_epi32(pd, "
              "_mm256_add_epi32(w, ones), 4);\n";
        os << "    __m256i dlm = _mm256_cmpgt_epi32(_mm256_and_si256("
              "_mm256_srli_epi32(w1, 16), ones), "
              "_mm256_setzero_si256());\n";
        os << "    go_left = _mm256_or_si256(go_left, "
              "_mm256_and_si256(missing, dlm));\n";
        os << "    *base = _mm256_i32gather_epi32(pd, "
              "_mm256_add_epi32(w, _mm256_set1_epi32(2)), 4);\n";
        os << "    return _mm256_blendv_epi8(child_false, child_true, "
              "go_left);\n";
        os << "  };\n";
    } else if (packed) {
        os << "  const float* pdf = (const float*)packed;\n";
        os << "  const int32_t* pd = (const int32_t*)packed;\n";
        // 16-byte record: word 0 = f32 threshold, word 1 = int16
        // feature | shape, word 2 = default-left byte, word 3 =
        // child base.
        os << "  auto step = [&](__m256i t, __m256i* base) {\n";
        os << "    __m256i w = _mm256_slli_epi32(t, 2);\n";
        os << "    __m256 th = _mm256_i32gather_ps(pdf, w, 4);\n";
        os << "    __m256i w1 = _mm256_i32gather_epi32(pd, "
              "_mm256_add_epi32(w, ones), 4);\n";
        os << "    __m256i fi = _mm256_srai_epi32("
              "_mm256_slli_epi32(w1, 16), 16);\n";
        os << "    __m256 fv = _mm256_i32gather_ps(rows, "
              "_mm256_add_epi32(fi, lane_row), 4);\n";
        os << "    __m256 go_left = _mm256_cmp_ps(fv, th, "
              "_CMP_LT_OQ);\n";
        os << "    __m256 missing = _mm256_cmp_ps(fv, fv, "
              "_CMP_UNORD_Q);\n";
        os << "    __m256i w2 = _mm256_i32gather_epi32(pd, "
              "_mm256_add_epi32(w, _mm256_set1_epi32(2)), 4);\n";
        os << "    __m256 dlm = _mm256_castsi256_ps(_mm256_cmpgt_epi32("
              "_mm256_and_si256(w2, ones), _mm256_setzero_si256()));\n";
        os << "    go_left = _mm256_or_ps(go_left, _mm256_and_ps("
              "missing, dlm));\n";
        os << "    *base = _mm256_i32gather_epi32(pd, "
              "_mm256_add_epi32(w, _mm256_set1_epi32(3)), 4);\n";
        os << "    return _mm256_blendv_epi8(child_false, child_true, "
              "_mm256_castps_si256(go_left));\n";
        os << "  };\n";
    } else {
        os << "  auto step = [&](__m256i t, __m256i* base) {\n";
        os << "    __m256 th = _mm256_i32gather_ps(thresholds, t, "
              "4);\n";
        os << "    __m256i fi = _mm256_i32gather_epi32(features, t, "
              "4);\n";
        os << "    __m256 fv = _mm256_i32gather_ps(rows, "
              "_mm256_add_epi32(fi, lane_row), 4);\n";
        os << "    __m256 go_left = _mm256_cmp_ps(fv, th, "
              "_CMP_LT_OQ);\n";
        os << "    __m256 missing = _mm256_cmp_ps(fv, fv, "
              "_CMP_UNORD_Q);\n";
        os << "    __m256i dl = _mm256_i32gather_epi32(default_left32, "
              "t, 4);\n";
        os << "    __m256 dlm = _mm256_castsi256_ps(_mm256_cmpgt_epi32("
              "dl, _mm256_setzero_si256()));\n";
        os << "    go_left = _mm256_or_ps(go_left, _mm256_and_ps("
              "missing, dlm));\n";
        os << "    *base = _mm256_i32gather_epi32(child_base, t, 4);\n";
        os << "    return _mm256_blendv_epi8(child_false, child_true, "
              "_mm256_castps_si256(go_left));\n";
        os << "  };\n";
    }
    if (unchecked > 0) {
        os << "  for (int d = 0; d < " << unchecked << "; ++d) {\n";
        os << "    __m256i base;\n";
        os << "    __m256i child = step(tile, &base);\n";
        os << "    tile = _mm256_add_epi32(base, child);\n";
        os << "  }\n";
    }
    os << "  __m256 result = _mm256_setzero_ps();\n";
    os << "  __m256i done = _mm256_setzero_si256();\n";
    os << "  for (;;) {\n";
    os << "    __m256i base;\n";
    os << "    __m256i child = step(tile, &base);\n";
    os << "    __m256i leaf = _mm256_cmpgt_epi32("
          "_mm256_setzero_si256(), base);\n";
    os << "    __m256i leaf_index = _mm256_sub_epi32(child, "
          "_mm256_add_epi32(base, ones));\n";
    os << "    result = _mm256_mask_i32gather_ps(result, leaves, "
          "leaf_index, _mm256_castsi256_ps(leaf), 4);\n";
    os << "    done = _mm256_or_si256(done, leaf);\n";
    os << "    if (_mm256_movemask_ps(_mm256_castsi256_ps(done)) == "
          "0xff) break;\n";
    // Retired lanes stay on their final tile so trailing gathers
    // remain in bounds.
    os << "    tile = _mm256_blendv_epi8(_mm256_add_epi32(base, "
          "child), tile, leaf);\n";
    os << "  }\n";
    os << "  _mm256_storeu_ps(out, result);\n";
    os << "#else\n";
    if (packed) {
        os << "  for (int i = 0; i < 8; ++i) out[i] = walk_group_"
           << group_index << "(root, rows + (int64_t)i * " << nf
           << ", packed, leaves, lut);\n";
    } else {
        os << "  (void)default_left32;\n";
        os << "  for (int i = 0; i < 8; ++i) out[i] = walk_group_"
           << group_index << "(root, rows + (int64_t)i * " << nf
           << ", thresholds, features, shape_ids, default_left, "
              "child_base, leaves, lut);\n";
    }
    os << "#endif\n";
    os << "}\n\n";
}

/**
 * Emit the multiclass constants and the softmax finisher: the class
 * of each (execution-order) tree position, and a routine replicating
 * model::softmaxInPlace operation-for-operation so compiled outputs
 * stay bit-identical to the kernel runtime.
 */
void
emitMulticlassSupport(std::ostringstream &os, const ForestBuffers &fb)
{
    os << "static const int kNumClasses = " << fb.numClasses << ";\n";
    os << "static const int32_t kTreeClass[" << fb.numTrees
       << "] = {";
    for (int64_t t = 0; t < fb.numTrees; ++t) {
        if (t != 0)
            os << ",";
        if (t % 20 == 0)
            os << "\n    ";
        os << fb.treeClass[static_cast<size_t>(t)];
    }
    os << "};\n\n";
    if (fb.objective == model::Objective::kMulticlassSoftmax) {
        os << "static inline void finishRow(float* v) {\n"
              "  float m = v[0];\n"
              "  for (int k = 1; k < kNumClasses; ++k) m = "
              "v[k] > m ? v[k] : m;\n"
              "  float sum = 0.0f;\n"
              "  for (int k = 0; k < kNumClasses; ++k) { v[k] = "
              "std::exp(v[k] - m); sum += v[k]; }\n"
              "  for (int k = 0; k < kNumClasses; ++k) v[k] /= sum;\n"
              "}\n\n";
    } else {
        os << "static inline void finishRow(float*) {}\n\n";
    }
}

/**
 * Emit the per-feature affine maps and the row-quantization helper for
 * the quantized packed layout. The expression mirrors
 * lir::QuantizationInfo::quantizeValue token-for-token (all integer
 * and exactly-rounded float ops), so generated code and the kernel
 * runtime quantize rows identically.
 */
void
emitQuantizationSupport(std::ostringstream &os, const ForestBuffers &fb)
{
    const lir::QuantizationInfo &q = fb.quantization;
    auto emit_array = [&](const char *name,
                          const std::vector<float> &values) {
        os << "static const float " << name << "[" << values.size()
           << "] = {";
        for (size_t f = 0; f < values.size(); ++f) {
            if (f != 0)
                os << ",";
            if (f % 8 == 0)
                os << "\n    ";
            os << floatLiteral(values[f]);
        }
        os << "};\n";
    };
    emit_array("kQScale", q.scale);
    emit_array("kQOffset", q.offset);
    os << "\nstatic inline int32_t quantize_value(float v, int f) {\n"
          "  if (v != v) return "
       << lir::kQuantizedNaN
       << ";\n"
          "  float scaled = (v - kQOffset[f]) * kQScale[f];\n"
          "  if (scaled >= 32766.0f) return 32766;\n"
          "  if (scaled <= -32768.0f) return -32768;\n"
          "  return (int32_t)std::lrintf(scaled);\n"
          "}\n\n";
}

} // namespace

std::string
emitPredictForestSource(const ForestBuffers &fb,
                        const std::vector<TreeGroup> &groups,
                        const hir::Schedule &schedule)
{
    fatalIf(groups.empty(), "source emission requires tree groups");
    bool multiclass = fb.numClasses > 1;
    std::ostringstream os;
    os << "// Generated by treebeard::codegen (schedule: "
       << schedule.toString() << ").\n";
    os << "#include <cstdint>\n#include <cmath>\n#include <cstddef>\n";
    os << "#if defined(__AVX2__)\n#include <immintrin.h>\n#endif\n\n";

    bool quantized = fb.layout == LayoutKind::kPackedQuantized;
    // Row-parallel traversal: 8 rows walk one tree in lockstep, which
    // forces a tree-major row loop regardless of loopOrder (the lane
    // group owns one tree at a time). Tile size 1 on the sparse and
    // packed layouts gets the vectorized lane-group walkers; other
    // configurations keep scalar walks driven 8 rows at a time — the
    // same lockstep structure, and bit-identical either way.
    bool row_parallel =
        schedule.traversal == hir::TraversalKind::kRowParallel;
    bool rows8 = row_parallel && fb.tileSize == 1 &&
                 fb.layout != LayoutKind::kArray;
    emitEvalTile(os, fb);
    if (quantized)
        emitQuantizationSupport(os, fb);
    for (size_t g = 0; g < groups.size(); ++g) {
        emitWalkFunction(os, fb, groups[g], g);
        if (rows8)
            emitRowParallelWalkFunction(os, fb, groups[g], g);
    }
    if (multiclass)
        emitMulticlassSupport(os, fb);

    int32_t k = schedule.interleaveFactor;
    bool one_tree =
        schedule.loopOrder == hir::LoopOrder::kOneTreeAtATime;
    if (row_parallel) {
        one_tree = true;
        k = 8;
    }
    // Trailing arguments every walk_group_* call passes through.
    std::string walk_tail =
        lir::isPackedKind(fb.layout)
            ? "packed, leaves, lut"
            : "thresholds, features, shape_ids, default_left, "
              "child_base, leaves, lut";
    // Rows enter the walks pre-quantized in the quantized layout.
    std::string rows_name = quantized ? "qrows" : "rows";
    std::string row_decl =
        quantized ? "const int32_t* row = qrows" : "const float* row = rows";
    // The model-buffer parameter block every entry point forwards.
    const char *buffer_params =
        "    const float* thresholds, const int32_t* features,\n"
        "    const int16_t* shape_ids, const uint8_t* default_left,\n"
        "    const int32_t* child_base,\n"
        "    const float* leaves, const int8_t* lut,\n"
        "    const int64_t* tree_first_tile,\n"
        "    const unsigned char* packed,\n"
        "    const int32_t* default_left32";
    const char *buffer_args =
        "thresholds, features, shape_ids, default_left, child_base, "
        "leaves, lut, tree_first_tile, packed, default_left32";
    // The lane-group walkers take the walk tail plus, on the sparse
    // layout, the widened default-direction shadow.
    std::string walk8_tail =
        lir::isPackedKind(fb.layout) ? walk_tail
                                     : walk_tail + ", default_left32";

    if (quantized) {
        // Quantize a row span once up front; the walks then compare
        // in int16 with no per-tile float work.
        os << "static inline void quantize_rows(const float* rows, "
              "int64_t num_rows, int32_t* out) {\n";
        os << "  const int nf = " << fb.numFeatures << ";\n";
        os << "  for (int64_t r = 0; r < num_rows; ++r)\n";
        os << "    for (int f = 0; f < nf; ++f)\n";
        os << "      out[r * nf + f] = "
              "quantize_value(rows[r * nf + f], f);\n";
        os << "}\n\n";
    }

    // The range core every entry point funnels into: it computes the
    // num_rows rows starting at rows/qrows and writes the matching
    // span of predictions, so callers hand it pointers already offset
    // to their chunk and it indexes from zero either way.
    os << "static void predict_range("
       << (quantized ? "const int32_t* qrows" : "const float* rows")
       << ", int64_t num_rows, float* predictions,\n"
       << buffer_params << ") {\n";
    os << "  const int nf = " << fb.numFeatures << ";\n";
    if (lir::isPackedKind(fb.layout)) {
        os << "  (void)thresholds; (void)features; (void)shape_ids; "
              "(void)default_left; (void)child_base;\n";
    } else {
        os << "  (void)packed;\n";
    }
    if (!(rows8 && !lir::isPackedKind(fb.layout)))
        os << "  (void)default_left32;\n";

    auto emit_objective = [&](const std::string &target,
                              const std::string &margin) {
        if (fb.objective == model::Objective::kBinaryLogistic) {
            os << target << " = 1.0f / (1.0f + std::exp(-(" << margin
               << ")));\n";
        } else {
            os << target << " = " << margin << ";\n";
        }
    };

    if (one_tree && multiclass) {
        // Per-(row, class) accumulators; each tree feeds its class.
        os << "  float* acc = new float[num_rows * kNumClasses];\n";
        os << "  for (int64_t i = 0; i < num_rows * kNumClasses; ++i) "
              "acc[i] = "
           << floatLiteral(fb.baseScore) << ";\n";
        for (size_t g = 0; g < groups.size(); ++g) {
            const TreeGroup &group = groups[g];
            os << "  for (int64_t pos = " << group.beginPos
               << "; pos < " << group.endPos << "; ++pos) {\n";
            os << "    int64_t root = tree_first_tile[pos];\n";
            os << "    const int64_t cls = kTreeClass[pos];\n";
            os << "    int64_t r = 0;\n";
            if (rows8) {
                // Row-parallel lane groups: 8 rows per walk.
                os << "    for (; r + 8 <= num_rows; r += 8) {\n";
                os << "      float out8[8];\n";
                os << "      walk_group_" << g << "_rows8(root, "
                   << rows_name << " + r * nf, " << walk8_tail
                   << ", out8);\n";
                os << "      for (int i = 0; i < 8; ++i) acc[(r + i) * "
                      "kNumClasses + cls] += out8[i];\n";
                os << "    }\n";
            } else if (k > 1) {
                // Unroll-and-jam over rows: K interleaved walks.
                os << "    for (; r + " << k
                   << " <= num_rows; r += " << k << ") {\n";
                for (int32_t i = 0; i < k; ++i) {
                    os << "      acc[(r + " << i
                       << ") * kNumClasses + cls] += walk_group_" << g
                       << "(root, " << rows_name << " + (r + " << i
                       << ") * nf, " << walk_tail << ");\n";
                }
                os << "    }\n";
            }
            os << "    for (; r < num_rows; ++r) acc[r * kNumClasses "
                  "+ cls] += walk_group_"
               << g << "(root, " << rows_name << " + r * nf, "
               << walk_tail << ");\n";
            os << "  }\n";
        }
        os << "  for (int64_t r = 0; r < num_rows; ++r) {\n";
        os << "    float* out = predictions + r * kNumClasses;\n";
        os << "    for (int c = 0; c < kNumClasses; ++c) out[c] = "
              "acc[r * kNumClasses + c];\n";
        os << "    finishRow(out);\n";
        os << "  }\n";
        os << "  delete[] acc;\n";
    } else if (one_tree) {
        os << "  float* acc = new float[num_rows];\n";
        os << "  for (int64_t r = 0; r < num_rows; ++r) acc[r] = "
           << floatLiteral(fb.baseScore) << ";\n";
        for (size_t g = 0; g < groups.size(); ++g) {
            const TreeGroup &group = groups[g];
            os << "  for (int64_t pos = " << group.beginPos
               << "; pos < " << group.endPos << "; ++pos) {\n";
            os << "    int64_t root = tree_first_tile[pos];\n";
            os << "    int64_t r = 0;\n";
            if (rows8) {
                // Row-parallel lane groups: 8 rows per walk.
                os << "    for (; r + 8 <= num_rows; r += 8) {\n";
                os << "      float out8[8];\n";
                os << "      walk_group_" << g << "_rows8(root, "
                   << rows_name << " + r * nf, " << walk8_tail
                   << ", out8);\n";
                os << "      for (int i = 0; i < 8; ++i) acc[r + i] += "
                      "out8[i];\n";
                os << "    }\n";
            } else if (k > 1) {
                // Unroll-and-jam over rows: K interleaved walks.
                os << "    for (; r + " << k
                   << " <= num_rows; r += " << k << ") {\n";
                for (int32_t i = 0; i < k; ++i) {
                    os << "      acc[r + " << i << "] += walk_group_"
                       << g << "(root, " << rows_name << " + (r + " << i
                       << ") * nf, " << walk_tail << ");\n";
                }
                os << "    }\n";
            }
            os << "    for (; r < num_rows; ++r) acc[r] += walk_group_"
               << g << "(root, " << rows_name << " + r * nf, "
               << walk_tail << ");\n";
            os << "  }\n";
        }
        os << "  for (int64_t r = 0; r < num_rows; ++r) ";
        emit_objective("predictions[r]", "acc[r]");
        os << "  delete[] acc;\n";
    } else if (multiclass) {
        os << "  for (int64_t r = 0; r < num_rows; ++r) {\n";
        os << "    " << row_decl << " + r * nf;\n";
        os << "    float margins[kNumClasses];\n";
        os << "    for (int c = 0; c < kNumClasses; ++c) margins[c] = "
           << floatLiteral(fb.baseScore) << ";\n";
        for (size_t g = 0; g < groups.size(); ++g) {
            const TreeGroup &group = groups[g];
            os << "    {\n";
            os << "      int64_t pos = " << group.beginPos << ";\n";
            if (k > 1) {
                os << "      for (; pos + " << k << " <= "
                   << group.endPos << "; pos += " << k << ") {\n";
                for (int32_t i = 0; i < k; ++i) {
                    os << "        margins[kTreeClass[pos + " << i
                       << "]] += walk_group_" << g
                       << "(tree_first_tile[pos + " << i << "], row, "
                       << walk_tail << ");\n";
                }
                os << "      }\n";
            }
            os << "      for (; pos < " << group.endPos
               << "; ++pos) margins[kTreeClass[pos]] += walk_group_"
               << g << "(tree_first_tile[pos], row, " << walk_tail
               << ");\n";
            os << "    }\n";
        }
        os << "    float* out = predictions + r * kNumClasses;\n";
        os << "    for (int c = 0; c < kNumClasses; ++c) out[c] = "
              "margins[c];\n";
        os << "    finishRow(out);\n";
        os << "  }\n";
    } else {
        os << "  for (int64_t r = 0; r < num_rows; ++r) {\n";
        os << "    " << row_decl << " + r * nf;\n";
        os << "    float margin = " << floatLiteral(fb.baseScore)
           << ";\n";
        for (size_t g = 0; g < groups.size(); ++g) {
            const TreeGroup &group = groups[g];
            os << "    {\n";
            os << "      int64_t pos = " << group.beginPos << ";\n";
            if (k > 1) {
                os << "      for (; pos + " << k << " <= "
                   << group.endPos << "; pos += " << k << ") {\n";
                for (int32_t i = 0; i < k; ++i) {
                    os << "        margin += walk_group_" << g
                       << "(tree_first_tile[pos + " << i << "], row, "
                       << walk_tail << ");\n";
                }
                os << "      }\n";
            }
            os << "      for (; pos < " << group.endPos
               << "; ++pos) margin += walk_group_" << g
               << "(tree_first_tile[pos], row, " << walk_tail
               << ");\n";
            os << "    }\n";
        }
        os << "    ";
        emit_objective("predictions[r]", "margin");
        os << "  }\n";
    }
    os << "}\n\n";

    // Chunking of the in-TU parallel row loop: the schedule can force
    // a chunk size; otherwise one contiguous chunk per worker.
    std::string chunk_expr =
        schedule.rowChunkRows > 0
            ? std::to_string(schedule.rowChunkRows)
            : "(num_rows + num_workers - 1) / num_workers";
    int32_t outs = fb.numClasses;
    int32_t nf = fb.numFeatures;

    // Serial entry: the whole batch as one range.
    os << "extern \"C\" void treebeard_predict(const float* rows, "
          "int64_t num_rows, float* predictions,\n"
       << buffer_params << ") {\n";
    os << "  if (num_rows <= 0) return;\n";
    if (quantized) {
        os << "  int32_t* qrows = new int32_t[num_rows * " << nf
           << "];\n";
        os << "  quantize_rows(rows, num_rows, qrows);\n";
        os << "  predict_range(qrows, num_rows, predictions, "
           << buffer_args << ");\n";
        os << "  delete[] qrows;\n";
    } else {
        os << "  predict_range(rows, num_rows, predictions, "
           << buffer_args << ");\n";
    }
    os << "}\n\n";

    // Parallel row loop, emitted into the TU: worker w computes the
    // chunks congruent to w mod num_workers, so the runtime only fans
    // out worker ids instead of partitioning rows above this function.
    os << "extern \"C\" void treebeard_predict_worker(int32_t worker, "
          "int32_t num_workers,\n"
          "    const float* rows, int64_t num_rows, "
          "float* predictions,\n"
       << buffer_params << ") {\n";
    os << "  if (num_rows <= 0 || num_workers <= 0 || worker < 0) "
          "return;\n";
    os << "  int64_t chunk = " << chunk_expr << ";\n";
    os << "  if (chunk < 1) chunk = 1;\n";
    if (quantized)
        os << "  int32_t* qbuf = new int32_t[chunk * " << nf << "];\n";
    os << "  for (int64_t begin = (int64_t)worker * chunk; "
          "begin < num_rows; begin += (int64_t)num_workers * chunk) "
          "{\n";
    os << "    int64_t end = begin + chunk < num_rows ? begin + chunk "
          ": num_rows;\n";
    if (quantized) {
        os << "    quantize_rows(rows + begin * " << nf
           << ", end - begin, qbuf);\n";
        os << "    predict_range(qbuf, end - begin, predictions + "
              "begin * "
           << outs << ", " << buffer_args << ");\n";
    } else {
        os << "    predict_range(rows + begin * " << nf
           << ", end - begin, predictions + begin * " << outs << ", "
           << buffer_args << ");\n";
    }
    os << "  }\n";
    if (quantized)
        os << "  delete[] qbuf;\n";
    os << "}\n";

    if (quantized) {
        // Resident-dataset entries: rows arrive pre-quantized (the
        // Session's bound Dataset image), so no quantization runs at
        // predict time at all.
        os << "\nextern \"C\" void treebeard_predict_resident("
              "const int32_t* qrows, int64_t num_rows, "
              "float* predictions,\n"
           << buffer_params << ") {\n";
        os << "  if (num_rows <= 0) return;\n";
        os << "  predict_range(qrows, num_rows, predictions, "
           << buffer_args << ");\n";
        os << "}\n\n";
        os << "extern \"C\" void treebeard_predict_resident_worker("
              "int32_t worker, int32_t num_workers,\n"
              "    const int32_t* qrows, int64_t num_rows, "
              "float* predictions,\n"
           << buffer_params << ") {\n";
        os << "  if (num_rows <= 0 || num_workers <= 0 || worker < 0) "
              "return;\n";
        os << "  int64_t chunk = " << chunk_expr << ";\n";
        os << "  if (chunk < 1) chunk = 1;\n";
        os << "  for (int64_t begin = (int64_t)worker * chunk; "
              "begin < num_rows; begin += (int64_t)num_workers * "
              "chunk) {\n";
        os << "    int64_t end = begin + chunk < num_rows ? begin + "
              "chunk : num_rows;\n";
        os << "    predict_range(qrows + begin * " << nf
           << ", end - begin, predictions + begin * " << outs << ", "
           << buffer_args << ");\n";
        os << "  }\n";
        os << "}\n";
    }
    return os.str();
}

JitOptions
withHostSimdFlags(JitOptions options)
{
#if defined(__x86_64__) || defined(__i386__)
    // The emitted source guards its AVX2 tile evaluation on __AVX2__;
    // light it up when this machine can run the instructions.
    if (__builtin_cpu_supports("avx2") &&
        options.extraFlags.find("-mavx2") == std::string::npos) {
        options.extraFlags +=
            options.extraFlags.empty() ? "-mavx2" : " -mavx2";
    }
#endif
    return options;
}

JitCompiledSession::JitCompiledSession(lir::ForestBuffers buffers,
                                       std::vector<TreeGroup> groups,
                                       const hir::Schedule &schedule,
                                       const JitOptions &jit_options)
    : buffers_(std::move(buffers))
{
    // The emitted row-parallel sparse walker gathers default-direction
    // bits with 4-byte word gathers (the emitted scalar walker reads
    // default_left unconditionally, so the vector mirror does too);
    // widen the uint8 array so those gathers stay in bounds.
    if (schedule.traversal == hir::TraversalKind::kRowParallel &&
        buffers_.tileSize == 1 &&
        buffers_.layout == lir::LayoutKind::kSparse) {
        dlWide_.assign(buffers_.defaultLeft.begin(),
                       buffers_.defaultLeft.end());
    }
    source_ = emitPredictForestSource(buffers_, groups, schedule);
    module_ = std::make_unique<JitModule>(source_,
                                          withHostSimdFlags(jit_options));
    predict_ = module_->function<PredictFn>("treebeard_predict");
    predictWorker_ =
        module_->function<PredictWorkerFn>("treebeard_predict_worker");
    // Only quantized-packed plans emit the resident entries.
    predictResident_ = module_->functionOrNull<PredictResidentFn>(
        "treebeard_predict_resident");
    predictResidentWorker_ =
        module_->functionOrNull<PredictResidentWorkerFn>(
            "treebeard_predict_resident_worker");
}

JitCompiledSession::BufferArgs
JitCompiledSession::bufferArgs() const
{
    // Layout-specific buffers may be empty (sparse-only arrays in the
    // array layout, every SoA array in the packed layout); the
    // generated code never dereferences them in those cases.
    BufferArgs args;
    args.childBase =
        buffers_.childBase.empty() ? nullptr : buffers_.childBase.data();
    args.leaves =
        buffers_.leaves.empty() ? nullptr : buffers_.leaves.data();
    args.packed = lir::isPackedKind(buffers_.layout)
                      ? buffers_.packedData()
                      : nullptr;
    args.defaultLeft32 = dlWide_.empty() ? nullptr : dlWide_.data();
    return args;
}

void
JitCompiledSession::predict(const float *rows, int64_t num_rows,
                            float *predictions) const
{
    BufferArgs a = bufferArgs();
    predict_(rows, num_rows, predictions, buffers_.thresholds.data(),
             buffers_.featureIndices.data(), buffers_.shapeIds.data(),
             buffers_.defaultLeft.data(), a.childBase, a.leaves,
             buffers_.shapes->lutData(), buffers_.treeFirstTile.data(),
             a.packed, a.defaultLeft32);
}

void
JitCompiledSession::predictWorker(int32_t worker, int32_t num_workers,
                                  const float *rows, int64_t num_rows,
                                  float *predictions) const
{
    BufferArgs a = bufferArgs();
    predictWorker_(worker, num_workers, rows, num_rows, predictions,
                   buffers_.thresholds.data(),
                   buffers_.featureIndices.data(),
                   buffers_.shapeIds.data(), buffers_.defaultLeft.data(),
                   a.childBase, a.leaves, buffers_.shapes->lutData(),
                   buffers_.treeFirstTile.data(), a.packed,
                   a.defaultLeft32);
}

void
JitCompiledSession::predictResident(const int32_t *qrows,
                                    int64_t num_rows,
                                    float *predictions) const
{
    panicIf(predictResident_ == nullptr,
            "plan has no resident predict entry");
    BufferArgs a = bufferArgs();
    predictResident_(qrows, num_rows, predictions,
                     buffers_.thresholds.data(),
                     buffers_.featureIndices.data(),
                     buffers_.shapeIds.data(),
                     buffers_.defaultLeft.data(), a.childBase, a.leaves,
                     buffers_.shapes->lutData(),
                     buffers_.treeFirstTile.data(), a.packed,
                     a.defaultLeft32);
}

void
JitCompiledSession::predictResidentWorker(int32_t worker,
                                          int32_t num_workers,
                                          const int32_t *qrows,
                                          int64_t num_rows,
                                          float *predictions) const
{
    panicIf(predictResidentWorker_ == nullptr,
            "plan has no resident predict entry");
    BufferArgs a = bufferArgs();
    predictResidentWorker_(worker, num_workers, qrows, num_rows,
                           predictions, buffers_.thresholds.data(),
                           buffers_.featureIndices.data(),
                           buffers_.shapeIds.data(),
                           buffers_.defaultLeft.data(), a.childBase,
                           a.leaves, buffers_.shapes->lutData(),
                           buffers_.treeFirstTile.data(), a.packed,
                           a.defaultLeft32);
}

} // namespace treebeard::codegen
