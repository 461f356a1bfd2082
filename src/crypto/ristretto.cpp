#include "src/crypto/ristretto.h"

#include <atomic>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/status.h"
#include "src/crypto/sha512.h"

namespace votegral {

namespace {

// Encode/Decode invocation counters. Relaxed is enough: tests and benches
// only ever read deltas after the parallel region they measure has joined.
std::atomic<uint64_t> g_encode_invocations{0};
std::atomic<uint64_t> g_decode_invocations{0};

// Derived curve constants, computed once at startup from first principles
// rather than transcribed, so that a typo cannot silently corrupt the group.
struct RistrettoConstants {
  Fe25519 d;                   // edwards25519 d = -121665/121666
  Fe25519 d2;                  // 2*d
  Fe25519 sqrt_m1;             // sqrt(-1)
  Fe25519 invsqrt_a_minus_d;   // 1/sqrt(a-d), a = -1
  Fe25519 sqrt_ad_minus_one;   // sqrt(a*d - 1)
  Fe25519 one_minus_d_sq;      // 1 - d^2
  Fe25519 d_minus_one_sq;      // (d - 1)^2
  Fe25519 base_x;              // basepoint x with sign chosen non-negative
  Fe25519 base_y;              // basepoint y = 4/5

  RistrettoConstants() {
    d = FeEdwardsD();
    d2 = FeAdd(d, d);
    sqrt_m1 = FeSqrtM1();

    // a - d = -1 - d.
    Fe25519 a_minus_d = FeSub(FeNeg(FeOne()), d);
    SqrtRatioResult inv_sqrt = FeSqrtRatioM1(FeOne(), a_minus_d);
    Require(inv_sqrt.was_square, "ristretto constants: a-d must be square");
    invsqrt_a_minus_d = inv_sqrt.root;

    // a*d - 1 = -d - 1.
    Fe25519 ad_minus_one = FeSub(FeNeg(d), FeOne());
    SqrtRatioResult sqrt_ad = FeSqrtRatioM1(ad_minus_one, FeOne());
    Require(sqrt_ad.was_square, "ristretto constants: ad-1 must be square");
    sqrt_ad_minus_one = sqrt_ad.root;

    one_minus_d_sq = FeSub(FeOne(), FeSquare(d));
    d_minus_one_sq = FeSquare(FeSub(d, FeOne()));

    // Basepoint: y = 4/5; x = sqrt((y^2-1)/(d*y^2+1)) with the even root.
    base_y = FeMul(FeFromU64(4), FeInvert(FeFromU64(5)));
    Fe25519 y2 = FeSquare(base_y);
    SqrtRatioResult x = FeSqrtRatioM1(FeSub(y2, FeOne()), FeAdd(FeMul(d, y2), FeOne()));
    Require(x.was_square, "ristretto constants: basepoint x must exist");
    base_x = x.root;  // FeSqrtRatioM1 returns the non-negative root.
  }
};

const RistrettoConstants& Consts() {
  static const RistrettoConstants kConstants;
  return kConstants;
}

}  // namespace

RistrettoPoint::RistrettoPoint() : x_(FeZero()), y_(FeOne()), z_(FeOne()), t_(FeZero()) {}

const RistrettoPoint& RistrettoPoint::Base() {
  static const RistrettoPoint kBase = [] {
    const RistrettoConstants& c = Consts();
    return RistrettoPoint(c.base_x, c.base_y, FeOne(), FeMul(c.base_x, c.base_y));
  }();
  return kBase;
}

std::optional<RistrettoPoint> RistrettoPoint::Decode(std::span<const uint8_t> bytes32) {
  g_decode_invocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes32.size() != 32 || !FeBytesAreCanonical(bytes32)) {
    return std::nullopt;
  }
  Fe25519 s = FeFromBytes(bytes32);
  if (FeIsNegative(s)) {
    return std::nullopt;
  }
  Fe25519 ss = FeSquare(s);
  Fe25519 u1 = FeSub(FeOne(), ss);   // 1 - s^2
  Fe25519 u2 = FeAdd(FeOne(), ss);   // 1 + s^2
  Fe25519 u2_sqr = FeSquare(u2);

  // v = -(d * u1^2) - u2^2
  Fe25519 v = FeSub(FeNeg(FeMul(Consts().d, FeSquare(u1))), u2_sqr);
  SqrtRatioResult inv = FeInvSqrt(FeMul(v, u2_sqr));
  if (!inv.was_square) {
    return std::nullopt;
  }
  Fe25519 den_x = FeMul(inv.root, u2);
  Fe25519 den_y = FeMul(FeMul(inv.root, den_x), v);

  Fe25519 x = FeAbs(FeMul(FeAdd(s, s), den_x));
  Fe25519 y = FeMul(u1, den_y);
  Fe25519 t = FeMul(x, y);

  if (FeIsNegative(t) || FeIsZero(y)) {
    return std::nullopt;
  }
  return RistrettoPoint(x, y, FeOne(), t);
}

std::array<uint8_t, 32> RistrettoPoint::Encode() const {
  g_encode_invocations.fetch_add(1, std::memory_order_relaxed);
  const RistrettoConstants& c = Consts();
  Fe25519 u1 = FeMul(FeAdd(z_, y_), FeSub(z_, y_));  // (Z+Y)(Z-Y)
  Fe25519 u2 = FeMul(x_, y_);
  // Every valid group element makes this input square-or-zero; was_square is
  // deliberately ignored, matching the scalar SQRT_RATIO_M1 formulation.
  Fe25519 inv_root = FeInvSqrt(FeMul(u1, FeSquare(u2))).root;
  Fe25519 den1 = FeMul(inv_root, u1);
  Fe25519 den2 = FeMul(inv_root, u2);
  Fe25519 z_inv = FeMul(FeMul(den1, den2), t_);

  Fe25519 ix = FeMul(x_, c.sqrt_m1);
  Fe25519 iy = FeMul(y_, c.sqrt_m1);
  Fe25519 enchanted_denominator = FeMul(den1, c.invsqrt_a_minus_d);

  bool rotate = FeIsNegative(FeMul(t_, z_inv));

  Fe25519 x = FeSelect(x_, iy, rotate);
  Fe25519 y = FeSelect(y_, ix, rotate);
  Fe25519 den_inv = FeSelect(den2, enchanted_denominator, rotate);

  if (FeIsNegative(FeMul(x, z_inv))) {
    y = FeNeg(y);
  }
  Fe25519 s = FeAbs(FeMul(den_inv, FeSub(z_, y)));
  return FeToBytes(s);
}

RistrettoPoint RistrettoPoint::ElligatorMap(const Fe25519& t) {
  const RistrettoConstants& c = Consts();

  Fe25519 r = FeMul(c.sqrt_m1, FeSquare(t));
  Fe25519 u = FeMul(FeAdd(r, FeOne()), c.one_minus_d_sq);
  Fe25519 minus_one = FeNeg(FeOne());
  // v = (-1 - r*d) * (r + d)
  Fe25519 v = FeMul(FeSub(minus_one, FeMul(r, c.d)), FeAdd(r, c.d));

  SqrtRatioResult sq = FeSqrtRatioM1(u, v);
  Fe25519 s = sq.root;
  Fe25519 s_prime = FeNeg(FeAbs(FeMul(s, t)));
  s = FeSelect(s_prime, s, sq.was_square);
  Fe25519 c_sel = FeSelect(r, minus_one, sq.was_square);

  // N = c * (r - 1) * (d - 1)^2 - v
  Fe25519 n = FeSub(FeMul(FeMul(c_sel, FeSub(r, FeOne())), c.d_minus_one_sq), v);

  Fe25519 s_sq = FeSquare(s);
  Fe25519 w0 = FeMul(FeAdd(s, s), v);
  Fe25519 w1 = FeMul(n, c.sqrt_ad_minus_one);
  Fe25519 w2 = FeSub(FeOne(), s_sq);
  Fe25519 w3 = FeAdd(FeOne(), s_sq);

  return RistrettoPoint(FeMul(w0, w3), FeMul(w2, w1), FeMul(w1, w3), FeMul(w0, w2));
}

RistrettoPoint RistrettoPoint::FromUniformBytes(std::span<const uint8_t> bytes64) {
  Require(bytes64.size() == 64, "FromUniformBytes: need 64 bytes");
  Fe25519 r0 = FeFromBytes(bytes64.subspan(0, 32));
  Fe25519 r1 = FeFromBytes(bytes64.subspan(32, 32));
  return ElligatorMap(r0) + ElligatorMap(r1);
}

RistrettoPoint RistrettoPoint::HashToGroup(std::string_view domain,
                                           std::span<const uint8_t> data) {
  const uint8_t separator = 0;
  auto digest = Sha512::HashParts({AsBytes(domain), {&separator, 1}, data});
  return FromUniformBytes(digest);
}

RistrettoPoint RistrettoPoint::operator+(const RistrettoPoint& other) const {
  // add-2008-hwcd-3 for a = -1 twisted Edwards curves.
  const Fe25519 a = FeMul(FeSub(y_, x_), FeSub(other.y_, other.x_));
  const Fe25519 b = FeMul(FeAdd(y_, x_), FeAdd(other.y_, other.x_));
  const Fe25519 cc = FeMul(FeMul(t_, Consts().d2), other.t_);
  const Fe25519 dd = FeMul(FeAdd(z_, z_), other.z_);
  const Fe25519 e = FeSub(b, a);
  const Fe25519 f = FeSub(dd, cc);
  const Fe25519 g = FeAdd(dd, cc);
  const Fe25519 h = FeAdd(b, a);
  return RistrettoPoint(FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h));
}

RistrettoPoint RistrettoPoint::operator-() const {
  return RistrettoPoint(FeNeg(x_), y_, z_, FeNeg(t_));
}

RistrettoPoint RistrettoPoint::operator-(const RistrettoPoint& other) const {
  return *this + (-other);
}

RistrettoPoint RistrettoPoint::Double() const {
  // dbl-2008-hwcd for a = -1.
  const Fe25519 a = FeSquare(x_);
  const Fe25519 b = FeSquare(y_);
  const Fe25519 c = FeMulSmall(FeSquare(z_), 2);
  const Fe25519 neg_a = FeNeg(a);  // D = a*A with a = -1
  const Fe25519 e = FeSub(FeSub(FeSquare(FeAdd(x_, y_)), a), b);
  const Fe25519 g = FeAdd(neg_a, b);
  const Fe25519 f = FeSub(g, c);
  const Fe25519 h = FeSub(neg_a, b);
  return RistrettoPoint(FeMul(e, f), FeMul(g, h), FeMul(f, g), FeMul(e, h));
}

RistrettoPoint operator*(const Scalar& s, const RistrettoPoint& p) {
  // 4-bit fixed-window multiplication.
  RistrettoPoint table[16];
  table[0] = RistrettoPoint::Identity();
  table[1] = p;
  for (int i = 2; i < 16; ++i) {
    table[i] = table[i - 1] + p;
  }
  auto bytes = s.ToBytes();
  RistrettoPoint acc;
  bool started = false;
  for (int i = 63; i >= 0; --i) {
    if (started) {
      acc = acc.Double().Double().Double().Double();
    }
    uint8_t byte = bytes[static_cast<size_t>(i / 2)];
    uint8_t nibble = (i % 2 == 1) ? (byte >> 4) : (byte & 0x0f);
    if (nibble != 0) {
      acc = started ? acc + table[nibble] : table[nibble];
      started = true;
    }
  }
  return started ? acc : RistrettoPoint::Identity();
}

namespace {

// Precomputed fixed-base table: kBaseTable[i][j] = j * 16^i * B, so that
// s*B = sum_i kBaseTable[i][nibble_i(s)] costs 64 additions and no doublings.
struct BaseTable {
  RistrettoPoint entry[64][16];

  BaseTable() {
    RistrettoPoint power = RistrettoPoint::Base();  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      entry[i][0] = RistrettoPoint::Identity();
      for (int j = 1; j < 16; ++j) {
        entry[i][j] = entry[i][j - 1] + power;
      }
      if (i + 1 < 64) {
        power = entry[i][8].Double();  // 16^(i+1) * B = 2 * (8 * 16^i * B)
      }
    }
  }
};

const BaseTable& GetBaseTable() {
  static const BaseTable kTable;
  return kTable;
}

}  // namespace

RistrettoPoint RistrettoPoint::MulBase(const Scalar& s) {
  const BaseTable& table = GetBaseTable();
  auto bytes = s.ToBytes();
  RistrettoPoint acc;
  for (int i = 0; i < 64; ++i) {
    uint8_t byte = bytes[static_cast<size_t>(i / 2)];
    uint8_t nibble = (i % 2 == 1) ? (byte >> 4) : (byte & 0x0f);
    if (nibble != 0) {
      acc = acc + table.entry[i][nibble];
    }
  }
  return acc;
}

RistrettoPoint RistrettoPoint::MulBaseSlow(const Scalar& s) { return s * Base(); }

// DoubleScalarMulBase is defined in src/crypto/msm.cpp on top of the
// multi-scalar multiplication engine (shared-doubling wNAF ladder).

const std::array<uint8_t, 32>& RistrettoPoint::BaseWire() {
  static const std::array<uint8_t, 32> kBaseWire = Base().Encode();
  return kBaseWire;
}

void BatchEncodePoints(std::span<const RistrettoPoint> points,
                       std::span<CompressedRistretto> out) {
  Require(points.size() == out.size(), "BatchEncodePoints: size mismatch");
  Executor::Current().ParallelFor(points.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = points[i].Encode();
    }
  });
}

size_t BatchDecodePoints(std::span<const CompressedRistretto> bytes,
                         std::span<RistrettoPoint> out, std::span<uint8_t> ok) {
  Require(bytes.size() == out.size() && bytes.size() == ok.size(),
          "BatchDecodePoints: size mismatch");
  std::atomic<size_t> failures{0};
  Executor::Current().ParallelFor(bytes.size(), [&](size_t begin, size_t end) {
    size_t chunk_failures = 0;
    for (size_t i = begin; i < end; ++i) {
      auto point = RistrettoPoint::Decode(bytes[i]);
      if (point.has_value()) {
        out[i] = *point;
        ok[i] = 1;
      } else {
        out[i] = RistrettoPoint::Identity();
        ok[i] = 0;
        ++chunk_failures;
      }
    }
    if (chunk_failures != 0) {
      failures.fetch_add(chunk_failures, std::memory_order_relaxed);
    }
  });
  return failures.load(std::memory_order_relaxed);
}

size_t BatchValidateEncodings(std::span<const RistrettoPoint> points,
                              std::span<const CompressedRistretto> bytes,
                              std::span<uint8_t> ok) {
  Require(points.size() == bytes.size() && points.size() == ok.size(),
          "BatchValidateEncodings: size mismatch");
  std::atomic<size_t> failures{0};
  Executor::Current().ParallelFor(points.size(), [&](size_t begin, size_t end) {
    const size_t n = end - begin;
    // Montgomery batch inversion of the Z coordinates: one FeInvert for the
    // whole chunk. Z is never zero for a group element, so the combined
    // product is invertible.
    std::vector<Fe25519> prefix(n);  // prefix[j] = Z_begin * ... * Z_{begin+j-1}
    Fe25519 acc = FeOne();
    for (size_t j = 0; j < n; ++j) {
      prefix[j] = acc;
      acc = FeMul(acc, points[begin + j].z_);
    }
    Fe25519 inv_suffix = FeInvert(acc);  // (Z_begin * ... * Z_{end-1})^-1

    size_t chunk_failures = 0;
    for (size_t j = n; j-- > 0;) {
      const size_t i = begin + j;
      Fe25519 z_inv = FeMul(inv_suffix, prefix[j]);
      inv_suffix = FeMul(inv_suffix, points[i].z_);

      const Fe25519 x = FeMul(points[i].x_, z_inv);
      const Fe25519 y = FeMul(points[i].y_, z_inv);

      bool valid;
      if (FeIsZero(x) || FeIsZero(y)) {
        // Identity coset {(0,±1), (±i,0)}: the canonical encoding is the
        // all-zero string, and no other bytes decode into this coset.
        valid = true;
        for (uint8_t b : bytes[i]) {
          valid &= (b == 0);
        }
      } else if (!FeBytesAreCanonical(bytes[i])) {
        valid = false;
      } else {
        const Fe25519 s = FeFromBytes(bytes[i]);
        if (FeIsNegative(s)) {
          valid = false;
        } else {
          // Select the canonical coset representative (x_c, y_c): of the four
          // reps {(x,y), (-x,-y), (iy,ix), (-iy,-ix)} exactly one has both a
          // non-negative t = x_c*y_c (fixing the pair) and a non-negative x_c
          // (fixing the sign) — the rep Decode(Encode(P)) produces. Then s is
          // the encoding of P iff s^2 = (1-y_c)/(1+y_c): decoded y determines
          // s up to sign and the non-negativity checks above fix the sign, so
          // the encoding of -P (whose canonical rep has a different y_c) can
          // never pass.
          Fe25519 y_c;
          if (FeIsNegative(FeMul(x, y))) {  // rotate: pair (±iy, ±ix)
            const Fe25519 ix = FeMul(FeSqrtM1(), x);
            const Fe25519 iy = FeMul(FeSqrtM1(), y);
            y_c = FeIsNegative(iy) ? FeNeg(ix) : ix;
          } else {  // pair (±x, ±y)
            y_c = FeIsNegative(x) ? FeNeg(y) : y;
          }
          const Fe25519 ss = FeSquare(s);
          valid = FeEqual(FeMul(ss, FeAdd(FeOne(), y_c)), FeSub(FeOne(), y_c));
        }
      }
      ok[i] = valid ? 1 : 0;
      if (!valid) {
        ++chunk_failures;
      }
    }
    if (chunk_failures != 0) {
      failures.fetch_add(chunk_failures, std::memory_order_relaxed);
    }
  });
  return failures.load(std::memory_order_relaxed);
}

uint64_t RistrettoEncodeInvocations() {
  return g_encode_invocations.load(std::memory_order_relaxed);
}

uint64_t RistrettoDecodeInvocations() {
  return g_decode_invocations.load(std::memory_order_relaxed);
}

bool RistrettoPoint::operator==(const RistrettoPoint& other) const {
  // Ristretto equality: P == Q iff X1*Y2 == Y1*X2 or X1*X2 == Y1*Y2
  // (both conditions identify the same 4-torsion coset).
  Fe25519 x1y2 = FeMul(x_, other.y_);
  Fe25519 y1x2 = FeMul(y_, other.x_);
  if (FeEqual(x1y2, y1x2)) {
    return true;
  }
  Fe25519 x1x2 = FeMul(x_, other.x_);
  Fe25519 y1y2 = FeMul(y_, other.y_);
  return FeEqual(x1x2, y1y2);
}

}  // namespace votegral
