// Tests for Schnorr signatures and ElGamal over ristretto255.
#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/crypto/batch.h"
#include "src/crypto/drbg.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/schnorr.h"

namespace votegral {
namespace {

TEST(Schnorr, SignVerifyRoundTrip) {
  ChaChaRng rng(50);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("ballot for election 2026-06");
  auto sig = kp.Sign(msg, rng);
  EXPECT_TRUE(SchnorrVerify(kp.public_bytes(), msg, sig).ok());
}

TEST(Schnorr, RejectsTamperedMessage) {
  ChaChaRng rng(51);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto sig = kp.Sign(AsBytes("message A"), rng);
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), AsBytes("message B"), sig).ok());
}

TEST(Schnorr, RejectsTamperedSignature) {
  ChaChaRng rng(52);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp.Sign(msg, rng);
  SchnorrSignature bad_r = sig;
  bad_r.r_bytes[0] ^= 1;
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), msg, bad_r).ok());
  SchnorrSignature bad_s = sig;
  bad_s.s = bad_s.s + Scalar::One();
  EXPECT_FALSE(SchnorrVerify(kp.public_bytes(), msg, bad_s).ok());
}

TEST(Schnorr, RejectsWrongKey) {
  ChaChaRng rng(53);
  auto kp1 = SchnorrKeyPair::Generate(rng);
  auto kp2 = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp1.Sign(msg, rng);
  EXPECT_FALSE(SchnorrVerify(kp2.public_bytes(), msg, sig).ok());
}

TEST(Schnorr, RejectsInvalidPublicKeyEncoding) {
  ChaChaRng rng(54);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("message");
  auto sig = kp.Sign(msg, rng);
  CompressedRistretto bad_pk = kp.public_bytes();
  bad_pk[0] ^= 1;  // negative s -> not a valid encoding
  EXPECT_FALSE(SchnorrVerify(bad_pk, msg, sig).ok());
}

TEST(Schnorr, SerializationRoundTrip) {
  ChaChaRng rng(55);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto msg = AsBytes("serialize me");
  auto sig = kp.Sign(msg, rng);
  Bytes wire = sig.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = SchnorrSignature::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(SchnorrVerify(kp.public_bytes(), msg, *parsed).ok());
  // Truncated or oversized inputs are rejected.
  EXPECT_FALSE(SchnorrSignature::Parse({wire.data(), 63}).has_value());
  wire.push_back(0);
  EXPECT_FALSE(SchnorrSignature::Parse(wire).has_value());
}

TEST(Schnorr, ParseRejectsNonCanonicalScalar) {
  // s >= ℓ must be rejected (malleability guard).
  Bytes wire(64, 0xff);
  EXPECT_FALSE(SchnorrSignature::Parse(wire).has_value());
}

TEST(Schnorr, FromSecretReconstructsSamePublicKey) {
  ChaChaRng rng(56);
  auto kp = SchnorrKeyPair::Generate(rng);
  auto restored = SchnorrKeyPair::FromSecret(kp.secret());
  EXPECT_EQ(restored.public_bytes(), kp.public_bytes());
}

// ---- Batched vs per-item Schnorr verification (differential) ----

enum class SchnorrMutation {
  kFlipS,
  kFlipRByte,
  kNonCanonicalR,
  kUndecodableKey,
  kAlteredMessage,
  kSwappedKey,
};

constexpr SchnorrMutation kAllSchnorrMutations[] = {
    SchnorrMutation::kFlipS,          SchnorrMutation::kFlipRByte,
    SchnorrMutation::kNonCanonicalR,  SchnorrMutation::kUndecodableKey,
    SchnorrMutation::kAlteredMessage, SchnorrMutation::kSwappedKey,
};

// p - x over 32-byte little-endian field elements (p = 2^255 - 19). For a
// canonical encoding enc(R) = x this is the "negative" twin -x: ristretto
// decoding computes R from x² and |x|, so without its sign check it would
// accept these bytes as R.
CompressedRistretto NegatedFieldEncoding(const CompressedRistretto& x) {
  CompressedRistretto out{};
  int borrow = 0;
  for (size_t i = 0; i < 32; ++i) {
    const int p_byte = i == 0 ? 0xed : (i == 31 ? 0x7f : 0xff);
    int d = p_byte - x[i] - borrow;
    borrow = d < 0 ? 1 : 0;
    out[i] = static_cast<uint8_t>(d + 256 * borrow);
  }
  return out;
}

std::vector<SchnorrBatchEntry> SignedSchnorrBatch(size_t n, bool shared_key, Rng& rng) {
  const SchnorrKeyPair shared = SchnorrKeyPair::Generate(rng);
  std::vector<SchnorrBatchEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    const SchnorrKeyPair key = shared_key ? shared : SchnorrKeyPair::Generate(rng);
    SchnorrBatchEntry entry;
    entry.public_key = key.public_bytes();
    entry.message = rng.RandomBytes(20 + i);
    entry.signature = key.Sign(entry.message, rng);
    entries.push_back(std::move(entry));
  }
  return entries;
}

// Corrupts entries[victim] so exactly that entry's signature is invalid.
void MutateSchnorrEntry(std::vector<SchnorrBatchEntry>& entries, size_t victim,
                        SchnorrMutation mutation, const CompressedRistretto& stranger_key) {
  SchnorrBatchEntry& e = entries[victim];
  switch (mutation) {
    case SchnorrMutation::kFlipS:
      e.signature.s = e.signature.s + Scalar::One();
      break;
    case SchnorrMutation::kFlipRByte:
      e.signature.r_bytes[7] ^= 0x10;
      break;
    case SchnorrMutation::kNonCanonicalR:
      e.signature.r_bytes = NegatedFieldEncoding(e.signature.r_bytes);
      break;
    case SchnorrMutation::kUndecodableKey:
      e.public_key[0] ^= 1;  // odd x: a negative field element never decodes
      break;
    case SchnorrMutation::kAlteredMessage:
      e.message[0] ^= 1;
      break;
    case SchnorrMutation::kSwappedKey: {
      // Another signer's valid key: the neighbour's in a distinct-key batch,
      // a stranger's when every entry shares one key.
      const CompressedRistretto& neighbour = entries[(victim + 1) % entries.size()].public_key;
      e.public_key = neighbour == e.public_key ? stranger_key : neighbour;
      break;
    }
  }
}

TEST(SchnorrBatch, DerivedWeightsRejectEveryMutationAndAgreeWithPerItem) {
  constexpr std::string_view kDomain = "test/schnorr-batch-weights/v1";
  ChaChaRng rng(57);
  const CompressedRistretto stranger = SchnorrKeyPair::Generate(rng).public_bytes();
  for (bool shared_key : {true, false}) {
    const std::vector<SchnorrBatchEntry> clean = SignedSchnorrBatch(12, shared_key, rng);
    const auto clean_seed = SchnorrBatchWeightSeed(kDomain, clean);
    ChaChaRng clean_weights(clean_seed);
    ASSERT_TRUE(BatchVerifySchnorr(clean, clean_weights).ok());
    for (const SchnorrBatchEntry& e : clean) {
      ASSERT_TRUE(SchnorrVerify(e.public_key, e.message, e.signature).ok());
    }
    for (SchnorrMutation mutation : kAllSchnorrMutations) {
      for (size_t victim : {size_t{0}, size_t{5}, size_t{11}}) {
        std::vector<SchnorrBatchEntry> batch = clean;
        MutateSchnorrEntry(batch, victim, mutation, stranger);
        const auto seed = SchnorrBatchWeightSeed(kDomain, batch);
        EXPECT_NE(seed, clean_seed);  // the weights bind every entry field
        ChaChaRng weights(seed);
        EXPECT_FALSE(BatchVerifySchnorr(batch, weights).ok())
            << "shared_key " << shared_key << " mutation " << static_cast<int>(mutation)
            << " victim " << victim;
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(SchnorrVerify(batch[i].public_key, batch[i].message, batch[i].signature)
                        .ok(),
                    i != victim)
              << "shared_key " << shared_key << " mutation " << static_cast<int>(mutation)
              << " victim " << victim << " entry " << i;
        }
      }
    }
  }
}

TEST(SchnorrBatch, NegatedFieldEncodingIsRejectedByDecode) {
  // The kNonCanonicalR mutation above must be a rejected encoding, not some
  // other valid point that would make the check vacuous.
  ChaChaRng rng(58);
  for (int i = 0; i < 8; ++i) {
    const CompressedRistretto enc = RistrettoPoint::MulBase(Scalar::Random(rng)).Encode();
    EXPECT_FALSE(RistrettoPoint::Decode(NegatedFieldEncoding(enc)).has_value());
  }
}

TEST(ElGamal, EncryptDecryptRoundTrip) {
  ChaChaRng rng(60);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  for (int iter = 0; iter < 10; ++iter) {
    RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
    auto ct = ElGamalEncrypt(pk, msg, rng);
    EXPECT_TRUE(ElGamalDecrypt(sk, ct) == msg);
  }
}

TEST(ElGamal, EncryptionIsRandomized) {
  ChaChaRng rng(61);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::Base();
  auto ct1 = ElGamalEncrypt(pk, msg, rng);
  auto ct2 = ElGamalEncrypt(pk, msg, rng);
  EXPECT_NE(ct1, ct2);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct1) == ElGamalDecrypt(sk, ct2));
}

TEST(ElGamal, ReRandomizePreservesPlaintext) {
  ChaChaRng rng(62);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(pk, msg, rng);
  auto ct2 = ct.ReRandomize(PrecomputedBase(pk), Scalar::Random(rng));
  EXPECT_NE(ct, ct2);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct2) == msg);
}

TEST(ElGamal, HomomorphicAddition) {
  ChaChaRng rng(63);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint m1 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  RistrettoPoint m2 = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct = ElGamalEncrypt(pk, m1, rng) + ElGamalEncrypt(pk, m2, rng);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct) == m1 + m2);
}

TEST(ElGamal, ExponentiateByBlindsConsistently) {
  // The deterministic-tagging core: Enc(M)^z decrypts to z*M, and two
  // encryptions of the same plaintext map to the same blinded value.
  ChaChaRng rng(64);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  Scalar z = Scalar::Random(rng);
  auto ct_a = ElGamalEncrypt(pk, msg, rng).ExponentiateBy(z);
  auto ct_b = ElGamalEncrypt(pk, msg, rng).ExponentiateBy(z);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct_a) == z * msg);
  EXPECT_TRUE(ElGamalDecrypt(sk, ct_a) == ElGamalDecrypt(sk, ct_b));
  // A different plaintext yields a different tag.
  RistrettoPoint other = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto ct_c = ElGamalEncrypt(pk, other, rng).ExponentiateBy(z);
  EXPECT_FALSE(ElGamalDecrypt(sk, ct_c) == z * msg);
}

TEST(ElGamal, TrivialEncryptThenReRandomize) {
  ChaChaRng rng(65);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  RistrettoPoint msg = RistrettoPoint::FromUniformBytes(rng.RandomBytes(64));
  auto trivial = ElGamalTrivialEncrypt(msg);
  EXPECT_TRUE(trivial.c1.IsIdentity());
  EXPECT_TRUE(ElGamalDecrypt(sk, trivial) == msg);
  auto randomized = trivial.ReRandomize(PrecomputedBase(pk), Scalar::Random(rng));
  EXPECT_FALSE(randomized.c1.IsIdentity());
  EXPECT_TRUE(ElGamalDecrypt(sk, randomized) == msg);
}

TEST(ElGamal, SerializationRoundTrip) {
  ChaChaRng rng(66);
  Scalar sk = Scalar::Random(rng);
  RistrettoPoint pk = RistrettoPoint::MulBase(sk);
  auto ct = ElGamalEncrypt(pk, RistrettoPoint::Base(), rng);
  Bytes wire = ct.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = ElGamalCiphertext::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ct);
  wire[0] ^= 1;
  // Either decodes to a different ciphertext or fails; never the same value.
  auto tampered = ElGamalCiphertext::Parse(wire);
  if (tampered.has_value()) {
    EXPECT_NE(*tampered, ct);
  }
}

}  // namespace
}  // namespace votegral
