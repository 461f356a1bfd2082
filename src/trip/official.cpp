#include "src/trip/official.h"

#include "src/common/serde.h"
#include "src/crypto/drbg.h"
#include "src/trip/kiosk.h"

namespace votegral {

namespace {

constexpr std::string_view kOfficialDomain = "trip/sig/official-checkout/v1";
constexpr std::string_view kRosterSignatureWeightDomain =
    "votegral/verifier/roster-signature-weights/v1";

}  // namespace

Bytes OfficialCheckOutPayload(const CheckOutSegment& checkout) {
  ByteWriter w;
  w.Str(kOfficialDomain);
  w.Str(checkout.voter_id);
  w.Fixed(checkout.public_credential.Serialize());
  w.Fixed(checkout.kiosk_sig.Serialize());
  return w.Take();
}

Official::Official(SchnorrKeyPair key, Bytes mac_key)
    : key_(std::move(key)), mac_key_(std::move(mac_key)) {}

Outcome<CheckInTicket> Official::CheckIn(const std::string& voter_id,
                                         const PublicLedger& ledger) {
  if (!ledger.IsEligible(voter_id)) {
    return Outcome<CheckInTicket>::Fail("official: voter not on the electoral roll");
  }
  CheckInTicket ticket;
  ticket.voter_id = voter_id;
  ticket.mac_tag = ComputeCheckInMac(mac_key_, voter_id);
  return Outcome<CheckInTicket>::Ok(std::move(ticket));
}

Status Official::CheckOut(const CheckOutSegment& checkout,
                          const std::set<CompressedRistretto>& authorized_kiosks,
                          PublicLedger& ledger, Rng& rng) {
  // K_pk ∈ K_pk? (Fig. 10 line 2)
  if (authorized_kiosks.count(checkout.kiosk_pk) == 0) {
    return Status::Error("official: credential issued by unauthorized kiosk");
  }
  // Verify σ_kot (Fig. 10 line 3).
  Status sig_ok = SchnorrVerify(checkout.kiosk_pk, checkout.SignedPayload(),
                                checkout.kiosk_sig);
  if (!sig_ok.ok()) {
    return Status::Error("official: kiosk check-out signature invalid: " + sig_ok.reason());
  }

  RegistrationRecord record;
  record.voter_id = checkout.voter_id;
  record.public_credential = checkout.public_credential;
  record.kiosk_pk = checkout.kiosk_pk;
  record.kiosk_sig = checkout.kiosk_sig;
  record.official_pk = key_.public_bytes();
  record.official_sig = key_.Sign(OfficialCheckOutPayload(checkout), rng);

  Status posted = ledger.PostRegistration(record);
  if (!posted.ok()) {
    return posted;
  }
  if (notify_) {
    notify_(checkout.voter_id);
  }
  return Status::Ok();
}

std::array<SchnorrBatchEntry, 2> RegistrationRecordSignatureEntries(
    const RegistrationRecord& record) {
  CheckOutSegment checkout;
  checkout.voter_id = record.voter_id;
  checkout.public_credential = record.public_credential;
  checkout.kiosk_pk = record.kiosk_pk;
  checkout.kiosk_sig = record.kiosk_sig;
  return {SchnorrBatchEntry{record.kiosk_pk, checkout.SignedPayload(), record.kiosk_sig},
          SchnorrBatchEntry{record.official_pk, OfficialCheckOutPayload(checkout),
                            record.official_sig}};
}

Status VerifyRegistrationRecord(const RegistrationRecord& record,
                                const std::set<CompressedRistretto>& authorized_kiosks,
                                const std::set<CompressedRistretto>& authorized_officials) {
  if (authorized_kiosks.count(record.kiosk_pk) == 0) {
    return Status::Error("registration record: unknown kiosk key");
  }
  if (authorized_officials.count(record.official_pk) == 0) {
    return Status::Error("registration record: unknown official key");
  }
  const auto [kiosk, official] = RegistrationRecordSignatureEntries(record);
  if (!SchnorrVerify(kiosk.public_key, kiosk.message, kiosk.signature).ok()) {
    return Status::Error("registration record: kiosk signature invalid");
  }
  if (!SchnorrVerify(official.public_key, official.message, official.signature).ok()) {
    return Status::Error("registration record: official signature invalid");
  }
  return Status::Ok();
}

Status VerifyRegistrationRecords(std::span<const RegistrationRecord> records,
                                 const std::set<CompressedRistretto>& authorized_kiosks,
                                 const std::set<CompressedRistretto>& authorized_officials,
                                 Executor& executor) {
  const size_t n = records.size();
  std::vector<SchnorrBatchEntry> entries(2 * n);
  std::vector<uint8_t> unauthorized(n, 0);
  executor.ParallelForEach(n, [&](size_t i) {
    if (authorized_kiosks.count(records[i].kiosk_pk) == 0 ||
        authorized_officials.count(records[i].official_pk) == 0) {
      unauthorized[i] = 1;
      return;
    }
    auto [kiosk, official] = RegistrationRecordSignatureEntries(records[i]);
    entries[2 * i] = std::move(kiosk);
    entries[2 * i + 1] = std::move(official);
  });
  if (!FirstMarked(unauthorized).has_value()) {
    ChaChaRng weights(SchnorrBatchWeightSeed(kRosterSignatureWeightDomain, entries));
    Executor::Scope scope(executor);
    if (BatchVerifySchnorr(entries, weights).ok()) {
      return Status::Ok();
    }
  }
  // Localize with the exact per-record check: the lowest failing position
  // and its error string are what the per-record loop alone would report.
  if (auto i = ParallelFirstFailure(executor, n, [&](size_t i) {
        return VerifyRegistrationRecord(records[i], authorized_kiosks, authorized_officials)
            .ok();
      });
      i.has_value()) {
    return VerifyRegistrationRecord(records[*i], authorized_kiosks, authorized_officials);
  }
  return Status::Error("registration record: batched signature check failed");
}

}  // namespace votegral
