// X.500 distinguished names.
//
// Zeek's X509.log renders issuer and subject as RFC 4514-style strings
// ("CN=example.com,O=Example,C=US"); the paper's whole issuer–subject
// methodology operates on these strings. DistinguishedName is an ordered RDN
// sequence with RFC 4514 parsing/serialization (including escaping) and the
// caseIgnore matching X.500 specifies for the attribute types that matter
// here, so that "cn=Example" and "CN=example" compare equal the way a real
// path builder would treat them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace certchain::x509 {

/// One relative distinguished name component ("CN=example.com").
struct Rdn {
  std::string type;   // attribute type as written, e.g. "CN", "emailAddress"
  std::string value;  // unescaped attribute value

  bool operator==(const Rdn&) const = default;
};

/// An ordered sequence of RDNs, most-specific first (leaf convention used by
/// Zeek and OpenSSL one-line output: "CN=...,OU=...,O=...,C=...").
class DistinguishedName {
 public:
  DistinguishedName() = default;
  explicit DistinguishedName(std::vector<Rdn> rdns);

  /// Parses an RFC 4514-style string. Handles backslash escaping of the
  /// special characters , + " \ < > ; = and leading '#'/space. Returns
  /// nullopt on malformed input (dangling escape, missing '=').
  static std::optional<DistinguishedName> parse(std::string_view text);

  /// parse() for log fields: malformed input degrades to a single CN=<raw>
  /// RDN instead of failing, so the row stays visible to the analysis (how
  /// string-level tooling treats an unparseable issuer or subject).
  static DistinguishedName parse_lenient(std::string_view text);

  /// Convenience for tests and generators; aborts on malformed input.
  static DistinguishedName parse_or_die(std::string_view text);

  /// Serializes back to RFC 4514 form with escaping.
  std::string to_string() const;

  /// Canonical form for matching: attribute types uppercased and values
  /// lowercased with internal whitespace collapsed. Two names with equal
  /// canonical forms are considered the same entity (X.500 caseIgnoreMatch).
  /// Computed once when the RDN sequence is built — comparison sites get a
  /// reference, never an allocation (DESIGN.md §16).
  const std::string& canonical() const { return canonical_; }

  /// Matching per canonical form.
  bool matches(const DistinguishedName& other) const;

  bool empty() const { return rdns_.empty(); }
  std::size_t size() const { return rdns_.size(); }
  const std::vector<Rdn>& rdns() const { return rdns_; }

  /// First value for the given attribute type (case-insensitive type match),
  /// or nullopt.
  std::optional<std::string> attribute(std::string_view type) const;

  /// Common accessors.
  std::optional<std::string> common_name() const { return attribute("CN"); }
  std::optional<std::string> organization() const { return attribute("O"); }
  std::optional<std::string> country() const { return attribute("C"); }

  /// Appends an RDN (builder-style use).
  DistinguishedName& add(std::string type, std::string value);

  /// Strict structural equality (types + values as written). The cached
  /// canonical form is derived state and deliberately not compared.
  bool operator==(const DistinguishedName& other) const {
    return rdns_ == other.rdns_;
  }

  /// Stable 64-bit hash of the canonical form.
  std::uint64_t canonical_hash() const;

 private:
  void rebuild_canonical();

  std::vector<Rdn> rdns_;
  std::string canonical_;  // derived from rdns_, kept in lockstep
};

/// Escapes one attribute value per RFC 4514.
std::string escape_dn_value(std::string_view value);

}  // namespace certchain::x509
