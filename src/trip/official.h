// Registration officials and their official supporting device (OSD):
// check-in (eligibility + MAC-authorized ticket, Fig. 8) and check-out
// (credential scan through the envelope window, signature chain, ledger
// posting, voter notification; Fig. 10).
#ifndef SRC_TRIP_OFFICIAL_H_
#define SRC_TRIP_OFFICIAL_H_

#include <functional>
#include <set>
#include <string>

#include "src/common/executor.h"
#include "src/common/outcome.h"
#include "src/common/rng.h"
#include "src/crypto/batch.h"
#include "src/crypto/schnorr.h"
#include "src/ledger/subledgers.h"
#include "src/trip/messages.h"

namespace votegral {

// A registration official (with their OSD).
class Official {
 public:
  // Called after a successful check-out so the VSD can notify the voter of
  // the registration event (impersonation defense, Appendix J).
  using NotificationHook = std::function<void(const std::string& voter_id)>;

  Official(SchnorrKeyPair key, Bytes mac_key);

  const CompressedRistretto& public_key() const { return key_.public_bytes(); }

  // Check-in: authenticates the voter against the roster and issues the
  // barcode ticket t_in authorizing one kiosk session.
  Outcome<CheckInTicket> CheckIn(const std::string& voter_id, const PublicLedger& ledger);

  // Check-out: scans the check-out segment visible through the envelope
  // window, verifies the kiosk signature and authorization, co-signs, and
  // posts the registration record to L_R.
  Status CheckOut(const CheckOutSegment& checkout,
                  const std::set<CompressedRistretto>& authorized_kiosks,
                  PublicLedger& ledger, Rng& rng);

  void set_notification_hook(NotificationHook hook) { notify_ = std::move(hook); }

 private:
  SchnorrKeyPair key_;
  Bytes mac_key_;
  NotificationHook notify_;
};

// The byte string the official's check-out signature σ_o covers.
Bytes OfficialCheckOutPayload(const CheckOutSegment& checkout);

// The two signatures a registration record carries, as batch entries:
// [0] the kiosk's σ_kot over the check-out segment, [1] the official's σ_o
// over OfficialCheckOutPayload. The one definition of what a record signs,
// shared by the per-record and the batched check.
std::array<SchnorrBatchEntry, 2> RegistrationRecordSignatureEntries(
    const RegistrationRecord& record);

// Verifies the full signature chain of a posted registration record:
// kiosk authorization, σ_kot, and σ_o. Used by auditors and the universal
// verifier.
Status VerifyRegistrationRecord(const RegistrationRecord& record,
                                const std::set<CompressedRistretto>& authorized_kiosks,
                                const std::set<CompressedRistretto>& authorized_officials);

// Verifies every record's chain as VerifyRegistrationRecord would, with all
// 2·n signatures folded into one BatchVerifySchnorr call (weights seeded by
// SchnorrBatchWeightSeed over the batch). The per-record path runs only when
// an authorization check or the batch fails, and then returns exactly the
// lowest-positioned record's VerifyRegistrationRecord error.
Status VerifyRegistrationRecords(std::span<const RegistrationRecord> records,
                                 const std::set<CompressedRistretto>& authorized_kiosks,
                                 const std::set<CompressedRistretto>& authorized_officials,
                                 Executor& executor);

}  // namespace votegral

#endif  // SRC_TRIP_OFFICIAL_H_
