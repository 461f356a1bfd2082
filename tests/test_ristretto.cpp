// Tests for the ristretto255 group: RFC 9496 test vectors, group laws, and
// encoding invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/drbg.h"
#include "src/crypto/fe25519_x4.h"
#include "src/crypto/ristretto.h"
#include "src/crypto/sha512.h"

namespace votegral {
namespace {

RistrettoPoint RandomPoint(Rng& rng) {
  Bytes b = rng.RandomBytes(64);
  return RistrettoPoint::FromUniformBytes(b);
}

TEST(Ristretto, IdentityEncodesToZeros) {
  auto enc = RistrettoPoint::Identity().Encode();
  EXPECT_EQ(HexEncode(enc), "0000000000000000000000000000000000000000000000000000000000000000");
  auto decoded = RistrettoPoint::Decode(enc);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->IsIdentity());
}

TEST(Ristretto, BasepointMatchesRfc9496) {
  EXPECT_EQ(HexEncode(RistrettoPoint::Base().Encode()),
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
}

TEST(Ristretto, SmallMultiplesMatchRfc9496) {
  // The first entries of the RFC 9496 small-multiples table.
  const char* expected[] = {
      "0000000000000000000000000000000000000000000000000000000000000000",
      "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
      "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
      "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
      "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
  };
  RistrettoPoint p = RistrettoPoint::Identity();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(HexEncode(p.Encode()), expected[i]) << "multiple " << i;
    EXPECT_EQ(HexEncode(RistrettoPoint::MulBase(Scalar::FromU64(static_cast<uint64_t>(i)))
                            .Encode()),
              expected[i])
        << "MulBase " << i;
    p = p + RistrettoPoint::Base();
  }
}

TEST(Ristretto, DecodeRejectsNonCanonical) {
  // All-ones: s >= p.
  Bytes bad = HexDecode("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_FALSE(RistrettoPoint::Decode(bad).has_value());
  // Negative s (lsb of a canonical valid encoding flipped makes s odd).
  auto base = RistrettoPoint::Base().Encode();
  base[0] ^= 1;
  EXPECT_FALSE(RistrettoPoint::Decode(base).has_value());
  // Wrong length.
  Bytes short_bytes(31, 0);
  EXPECT_FALSE(RistrettoPoint::Decode(short_bytes).has_value());
}

TEST(Ristretto, DecodeRejectsOffGroupEncodings) {
  // Sweep some syntactically-plausible encodings; most must fail cleanly and
  // none may crash.
  ChaChaRng rng(31);
  int accepted = 0;
  for (int iter = 0; iter < 100; ++iter) {
    Bytes b = rng.RandomBytes(32);
    b[31] &= 0x7f;  // keep it a plausible field element
    b[0] &= 0xfe;   // keep s non-negative
    auto p = RistrettoPoint::Decode(b);
    if (p.has_value()) {
      ++accepted;
      // Accepted points must round-trip.
      EXPECT_EQ(HexEncode(p->Encode()), HexEncode(b));
    }
  }
  // Roughly 1/4..1/2 of candidates decode; all must not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 100);
}

TEST(Ristretto, EncodeDecodeRoundTrip) {
  ChaChaRng rng(32);
  for (int iter = 0; iter < 30; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    auto enc = p.Encode();
    auto back = RistrettoPoint::Decode(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == p);
    EXPECT_EQ(back->Encode(), enc);
  }
}

TEST(Ristretto, GroupLaws) {
  ChaChaRng rng(33);
  for (int iter = 0; iter < 15; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    RistrettoPoint q = RandomPoint(rng);
    RistrettoPoint r = RandomPoint(rng);
    EXPECT_TRUE(p + q == q + p);
    EXPECT_TRUE((p + q) + r == p + (q + r));
    EXPECT_TRUE(p + RistrettoPoint::Identity() == p);
    EXPECT_TRUE(p - p == RistrettoPoint::Identity());
    EXPECT_TRUE(p.Double() == p + p);
    EXPECT_TRUE(-(-p) == p);
  }
}

TEST(Ristretto, ScalarMultiplicationLaws) {
  ChaChaRng rng(34);
  for (int iter = 0; iter < 8; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    Scalar a = Scalar::Random(rng);
    Scalar b = Scalar::Random(rng);
    EXPECT_TRUE((a + b) * p == a * p + b * p);
    EXPECT_TRUE((a * b) * p == a * (b * p));
    EXPECT_TRUE(Scalar::One() * p == p);
    EXPECT_TRUE(Scalar::Zero() * p == RistrettoPoint::Identity());
    EXPECT_TRUE((-a) * p == -(a * p));
  }
}

TEST(Ristretto, MulBaseMatchesGenericMultiplication) {
  ChaChaRng rng(35);
  for (int iter = 0; iter < 10; ++iter) {
    Scalar s = Scalar::Random(rng);
    EXPECT_TRUE(RistrettoPoint::MulBase(s) == s * RistrettoPoint::Base());
    EXPECT_TRUE(RistrettoPoint::MulBase(s) == RistrettoPoint::MulBaseSlow(s));
  }
}

TEST(Ristretto, DoubleScalarMulBase) {
  ChaChaRng rng(36);
  for (int iter = 0; iter < 8; ++iter) {
    RistrettoPoint p = RandomPoint(rng);
    Scalar a = Scalar::Random(rng);
    Scalar b = Scalar::Random(rng);
    EXPECT_TRUE(RistrettoPoint::DoubleScalarMulBase(a, p, b) ==
                a * p + RistrettoPoint::MulBase(b));
  }
}

TEST(Ristretto, SmallScalarMultiples) {
  ChaChaRng rng(37);
  RistrettoPoint p = RandomPoint(rng);
  RistrettoPoint acc = RistrettoPoint::Identity();
  for (uint64_t k = 0; k <= 20; ++k) {
    EXPECT_TRUE(Scalar::FromU64(k) * p == acc) << "k=" << k;
    acc = acc + p;
  }
}

TEST(Ristretto, FromUniformBytesIsDeterministicAndSpreads) {
  Bytes seed(64, 7);
  RistrettoPoint a = RistrettoPoint::FromUniformBytes(seed);
  RistrettoPoint b = RistrettoPoint::FromUniformBytes(seed);
  EXPECT_TRUE(a == b);
  seed[0] ^= 1;
  RistrettoPoint c = RistrettoPoint::FromUniformBytes(seed);
  EXPECT_FALSE(a == c);
}

TEST(Ristretto, HashToGroupDomainSeparation) {
  auto data = AsBytes("the same input");
  RistrettoPoint a = RistrettoPoint::HashToGroup("domain-a", data);
  RistrettoPoint b = RistrettoPoint::HashToGroup("domain-b", data);
  RistrettoPoint a2 = RistrettoPoint::HashToGroup("domain-a", data);
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
}

TEST(Ristretto, EqualityIsCosetAware) {
  // Two different extended representations of the same ristretto element
  // (reached via different operation orders) must compare equal.
  ChaChaRng rng(38);
  RistrettoPoint p = RandomPoint(rng);
  RistrettoPoint q = RandomPoint(rng);
  RistrettoPoint via1 = (p + q) + p;
  RistrettoPoint via2 = p.Double() + q;
  EXPECT_TRUE(via1 == via2);
  EXPECT_EQ(via1.Encode(), via2.Encode());
}

// Parameterized: k*(m*P) == (k*m)*P across a sweep of small k, m.
class RistrettoMulConsistency : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RistrettoMulConsistency, ComposesCorrectly) {
  auto [k, m] = GetParam();
  ChaChaRng rng(40);
  RistrettoPoint p = RandomPoint(rng);
  Scalar sk = Scalar::FromU64(static_cast<uint64_t>(k));
  Scalar sm = Scalar::FromU64(static_cast<uint64_t>(m));
  EXPECT_TRUE(sk * (sm * p) == (sk * sm) * p);
}

INSTANTIATE_TEST_SUITE_P(SmallPairs, RistrettoMulConsistency,
                         ::testing::Values(std::pair{2, 3}, std::pair{5, 7}, std::pair{1, 255},
                                           std::pair{16, 16}, std::pair{255, 255},
                                           std::pair{0, 9}, std::pair{13, 1}));

TEST(RistrettoBatch, BatchEncodeMatchesSingleOnRandomAndEdgePoints) {
  ChaChaRng rng(50);
  std::vector<RistrettoPoint> points;
  points.push_back(RistrettoPoint::Identity());  // u1 = u2 = 0 inside Encode
  points.push_back(RistrettoPoint::Base());
  points.push_back(RistrettoPoint::Base().Double());
  points.push_back(-RistrettoPoint::Base());
  for (int i = 0; i < 60; ++i) {
    points.push_back(RandomPoint(rng));
  }
  std::vector<CompressedRistretto> batch(points.size());
  BatchEncodePoints(points, batch);
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(HexEncode(batch[i]), HexEncode(points[i].Encode())) << "index " << i;
  }
}

TEST(RistrettoBatch, BatchDecodeMatchesSingleIncludingRejects) {
  ChaChaRng rng(51);
  std::vector<CompressedRistretto> inputs;
  auto push = [&](std::span<const uint8_t> b) {
    CompressedRistretto c{};
    std::copy(b.begin(), b.end(), c.begin());
    inputs.push_back(c);
  };
  // Valid edge encodings.
  push(RistrettoPoint::Identity().Encode());
  push(RistrettoPoint::Base().Encode());
  // Known rejects: s >= p (non-canonical field encoding)...
  push(HexDecode("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"));
  // ...negative s...
  {
    auto neg = RistrettoPoint::Base().Encode();
    neg[0] ^= 1;
    push(neg);
  }
  // ...and p - 1 (canonical, non-negative, but not on the group).
  push(HexDecode("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"));
  // Random mix of valid and invalid candidates.
  for (int i = 0; i < 40; ++i) {
    Bytes b = rng.RandomBytes(32);
    b[31] &= 0x7f;
    b[0] &= 0xfe;
    push(b);
  }
  for (int i = 0; i < 10; ++i) {
    push(RandomPoint(rng).Encode());
  }

  std::vector<RistrettoPoint> decoded(inputs.size());
  std::vector<uint8_t> ok(inputs.size(), 0xcc);
  size_t failures = BatchDecodePoints(inputs, decoded, ok);

  size_t expected_failures = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    auto single = RistrettoPoint::Decode(inputs[i]);
    EXPECT_EQ(ok[i] == 1, single.has_value()) << "index " << i;
    if (single.has_value()) {
      EXPECT_TRUE(decoded[i] == *single) << "index " << i;
    } else {
      ++expected_failures;
      EXPECT_TRUE(decoded[i].IsIdentity()) << "index " << i;  // defined placeholder
    }
  }
  EXPECT_EQ(failures, expected_failures);
  EXPECT_FALSE(RistrettoPoint::Decode(inputs[2]).has_value());  // s >= p really rejects
  EXPECT_FALSE(RistrettoPoint::Decode(inputs[3]).has_value());  // negative s
  EXPECT_FALSE(RistrettoPoint::Decode(inputs[4]).has_value());  // off-group
}

TEST(RistrettoBatch, ValidateEncodingsAcceptsExactlyTheTrueEncodings) {
  ChaChaRng rng(53);
  std::vector<RistrettoPoint> points;
  std::vector<CompressedRistretto> wire;
  std::vector<bool> expect_ok;
  auto add = [&](const RistrettoPoint& p, const CompressedRistretto& bytes, bool expected) {
    points.push_back(p);
    wire.push_back(bytes);
    expect_ok.push_back(expected);
  };

  // Identity-coset reps reached through arithmetic (Z != 1, non-trivial
  // internal representative): only the all-zero encoding may pass.
  RistrettoPoint p0 = RandomPoint(rng);
  add(p0 + (-p0), RistrettoPoint::Identity().Encode(), true);
  add(p0 + (-p0), RistrettoPoint::Base().Encode(), false);
  add(RistrettoPoint::Identity(), CompressedRistretto{}, true);

  for (int i = 0; i < 48; ++i) {
    RistrettoPoint p = RandomPoint(rng);
    if (i % 3 == 1) {
      p = p + RandomPoint(rng);  // Z != 1 representative
    }
    CompressedRistretto enc = p.Encode();
    switch (i % 6) {
      case 0:
      case 1:
        add(p, enc, true);
        break;
      case 2:  // the encoding of -P must never be accepted for P
        add(p, (-p).Encode(), false);
        break;
      case 3: {  // bit flip somewhere in the encoding
        CompressedRistretto bad = enc;
        bad[static_cast<size_t>(i) % 32] ^= static_cast<uint8_t>(1 + i % 7);
        add(p, bad, false);
        break;
      }
      case 4: {  // non-canonical field encoding (s >= p)
        Bytes raw =
            HexDecode("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        CompressedRistretto bad;
        std::copy(raw.begin(), raw.end(), bad.begin());
        add(p, bad, false);
        break;
      }
      default:  // a different random point's encoding
        add(p, RandomPoint(rng).Encode(), false);
        break;
    }
  }

  std::vector<uint8_t> ok(points.size(), 0xcc);
  uint64_t enc0 = RistrettoEncodeInvocations();
  uint64_t dec0 = RistrettoDecodeInvocations();
  size_t failures = BatchValidateEncodings(points, wire, ok);
  // The whole batch validates with zero Encode/Decode invocations — the
  // point of the routine (no per-item inverse square roots).
  EXPECT_EQ(RistrettoEncodeInvocations(), enc0);
  EXPECT_EQ(RistrettoDecodeInvocations(), dec0);

  size_t expected_failures = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(ok[i] == 1, expect_ok[i]) << "index " << i;
    if (!expect_ok[i]) {
      ++expected_failures;
    }
  }
  EXPECT_EQ(failures, expected_failures);
}

TEST(RistrettoBatch, ValidateEncodingsAgreesWithDecodeCompareOnArbitraryBytes) {
  // Reference semantics: ok[i] must equal "bytes decode AND the decoded point
  // equals points[i]" — the exact check the verifier-side wire-cache
  // validation previously implemented with per-item Decode.
  ChaChaRng rng(54);
  std::vector<RistrettoPoint> points;
  std::vector<CompressedRistretto> wire;
  for (int i = 0; i < 64; ++i) {
    points.push_back(RandomPoint(rng));
    CompressedRistretto c{};
    if (i % 2 == 0) {
      c = points.back().Encode();
      if (i % 4 == 0) {
        c[i % 32] ^= 0x40;  // half of the even slots corrupted
      }
    } else {
      Bytes b = rng.RandomBytes(32);
      std::copy(b.begin(), b.end(), c.begin());
    }
    wire.push_back(c);
  }
  std::vector<uint8_t> ok(points.size(), 0xcc);
  BatchValidateEncodings(points, wire, ok);
  for (size_t i = 0; i < points.size(); ++i) {
    auto decoded = RistrettoPoint::Decode(wire[i]);
    bool reference = decoded.has_value() && *decoded == points[i];
    EXPECT_EQ(ok[i] == 1, reference) << "index " << i;
  }
}

TEST(RistrettoBatch, AddX4MatchesScalarAdds) {
  // The lifecycle benchmark's compatibility AddX4, including the in-place
  // form (out aliasing a).
  ChaChaRng rng(53);
  RistrettoPoint a[4], b[4], sum[4];
  for (int k = 0; k < 4; ++k) {
    a[k] = RandomPoint(rng);
    b[k] = RandomPoint(rng);
  }
  RistrettoPoint::AddX4(a, b, sum);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(sum[k], a[k] + b[k]) << "lane " << k;
  }
  RistrettoPoint::AddX4(a, b, a);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(a[k], sum[k]) << "lane " << k;
  }
}

TEST(RistrettoBatch, BaseWireIsTheBasepointEncoding) {
  EXPECT_EQ(HexEncode(RistrettoPoint::BaseWire()),
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76");
}

TEST(RistrettoBatch, InvocationCountersTrackEncodeAndDecode) {
  ChaChaRng rng(52);
  std::vector<RistrettoPoint> points(8, RandomPoint(rng));
  std::vector<CompressedRistretto> wire(points.size());
  uint64_t enc0 = RistrettoEncodeInvocations();
  BatchEncodePoints(points, wire);
  EXPECT_EQ(RistrettoEncodeInvocations() - enc0, points.size());
  std::vector<RistrettoPoint> back(points.size());
  std::vector<uint8_t> ok(points.size(), 0);
  uint64_t dec0 = RistrettoDecodeInvocations();
  BatchDecodePoints(wire, back, ok);
  EXPECT_EQ(RistrettoDecodeInvocations() - dec0, points.size());
}

}  // namespace
}  // namespace votegral
