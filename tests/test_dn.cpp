// DistinguishedName: RFC 4514 parsing, escaping, canonical matching.
#include "x509/distinguished_name.hpp"

#include <gtest/gtest.h>

namespace certchain::x509 {
namespace {

TEST(DistinguishedName, ParsesSimpleDn) {
  const auto parsed = DistinguishedName::parse("CN=example.com,O=Example Inc,C=US");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->rdns()[0].type, "CN");
  EXPECT_EQ(parsed->rdns()[0].value, "example.com");
  EXPECT_EQ(parsed->rdns()[1].value, "Example Inc");
  EXPECT_EQ(parsed->country(), "US");
}

TEST(DistinguishedName, ParsesEscapedSpecials) {
  const auto parsed = DistinguishedName::parse(R"(CN=Acme\, Inc.,O=a\=b,C=US)");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), "Acme, Inc.");
  EXPECT_EQ(parsed->organization(), "a=b");
}

TEST(DistinguishedName, ParsesEscapedBackslashAndHexPairs) {
  const auto parsed = DistinguishedName::parse(R"(CN=back\\slash,O=hex\41value)");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), R"(back\slash)");
  EXPECT_EQ(parsed->organization(), "hexAvalue");
}

TEST(DistinguishedName, SkipsInsignificantSpaces) {
  const auto parsed = DistinguishedName::parse("CN = spaced , O = padded org ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), "spaced");
  EXPECT_EQ(parsed->organization(), "padded org");
}

TEST(DistinguishedName, PreservesEscapedEdgeSpaces) {
  const auto parsed = DistinguishedName::parse(R"(CN=\ lead and trail\ )");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->common_name(), " lead and trail ");
}

TEST(DistinguishedName, RejectsMalformedInputs) {
  EXPECT_FALSE(DistinguishedName::parse("novalue").has_value());
  EXPECT_FALSE(DistinguishedName::parse("CN=x,").has_value());       // trailing comma
  EXPECT_FALSE(DistinguishedName::parse("=value").has_value());      // empty type
  EXPECT_FALSE(DistinguishedName::parse("CN=dangling\\").has_value());
  EXPECT_FALSE(DistinguishedName::parse("CN=x,noeq,C=US").has_value());
  EXPECT_THROW(DistinguishedName::parse_or_die("bad"), std::invalid_argument);
}

TEST(DistinguishedName, ParseLenientKeepsMalformedInputAsOneCn) {
  const DistinguishedName malformed =
      DistinguishedName::parse_lenient("CN=x,noeq,C=US");
  ASSERT_EQ(malformed.size(), 1u);
  EXPECT_EQ(malformed.rdns().front().type, "CN");
  EXPECT_EQ(malformed.rdns().front().value, "CN=x,noeq,C=US");

  const DistinguishedName valid =
      DistinguishedName::parse_lenient("CN=example.com,O=Example Inc,C=US");
  EXPECT_EQ(valid,
            DistinguishedName::parse_or_die("CN=example.com,O=Example Inc,C=US"));
  EXPECT_EQ(valid.size(), 3u);
}

TEST(DistinguishedName, EmptyInputYieldsEmptyDn) {
  const auto parsed = DistinguishedName::parse("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
  EXPECT_EQ(parsed->to_string(), "");
}

class DnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DnRoundTrip, SerializeParseIdentity) {
  const auto first = DistinguishedName::parse(GetParam());
  ASSERT_TRUE(first.has_value());
  const std::string serialized = first->to_string();
  const auto second = DistinguishedName::parse(serialized);
  ASSERT_TRUE(second.has_value()) << serialized;
  EXPECT_EQ(*first, *second) << serialized;
  EXPECT_EQ(second->to_string(), serialized);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DnRoundTrip,
    ::testing::Values(
        "CN=example.com",
        "CN=example.com,O=Example Inc,C=US",
        R"(CN=Acme\, Inc.,OU=R\=D,C=GB)",
        "emailAddress=webmaster@localhost,CN=localhost,OU=none,O=none,"
        "L=Sometown,ST=Someprovince,C=US",
        R"(CN=we\\ird\,name,O=x)",
        "CN=Sim USERTrust RSA Certification Authority,O=Sim The USERTRUST "
        "Network,C=US"));

TEST(DistinguishedName, CanonicalMatchingIsCaseInsensitive) {
  const auto a = DistinguishedName::parse_or_die("CN=Example.COM,o=Acme");
  const auto b = DistinguishedName::parse_or_die("cn=example.com,O=ACME");
  EXPECT_TRUE(a.matches(b));
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  EXPECT_NE(a, b);  // strict equality still sees the difference
}

TEST(DistinguishedName, CanonicalCollapsesInternalWhitespace) {
  const auto a = DistinguishedName::parse_or_die("CN=Example   Inc");
  const auto b = DistinguishedName::parse_or_die("CN=Example Inc");
  EXPECT_TRUE(a.matches(b));
}

TEST(DistinguishedName, MatchingIsOrderSensitive) {
  const auto a = DistinguishedName::parse_or_die("CN=x,O=y");
  const auto b = DistinguishedName::parse_or_die("O=y,CN=x");
  EXPECT_FALSE(a.matches(b));  // RDN sequence order is significant
}

TEST(DistinguishedName, DifferentValuesDoNotMatch) {
  const auto a = DistinguishedName::parse_or_die("CN=alpha,O=org");
  const auto b = DistinguishedName::parse_or_die("CN=beta,O=org");
  EXPECT_FALSE(a.matches(b));
}

TEST(DistinguishedName, AttributeLookupIsTypeCaseInsensitive) {
  const auto parsed = DistinguishedName::parse_or_die("cn=x,o=y,st=VA");
  EXPECT_EQ(parsed.attribute("CN"), "x");
  EXPECT_EQ(parsed.attribute("St"), "VA");
  EXPECT_FALSE(parsed.attribute("L").has_value());
}

TEST(DistinguishedName, AddBuildsIncrementally) {
  DistinguishedName name;
  name.add("CN", "svc.example").add("O", "Org");
  EXPECT_EQ(name.to_string(), "CN=svc.example,O=Org");
  EXPECT_EQ(name.size(), 2u);
}

TEST(EscapeDnValue, EscapesExactlyWhatRfc4514Requires) {
  EXPECT_EQ(escape_dn_value("plain"), "plain");
  EXPECT_EQ(escape_dn_value("a,b"), R"(a\,b)");
  EXPECT_EQ(escape_dn_value(" lead"), R"(\ lead)");
  EXPECT_EQ(escape_dn_value("trail "), R"(trail\ )");
  EXPECT_EQ(escape_dn_value("#hash"), R"(\#hash)");
  EXPECT_EQ(escape_dn_value("mid dle"), "mid dle");  // interior space is fine
  EXPECT_EQ(escape_dn_value("a+b<c>d;e\"f\\g"), R"(a\+b\<c\>d\;e\"f\\g)");
}

TEST(DistinguishedName, CanonicalDistinguishesSeparatorAmbiguity) {
  // "CN=a,O=b" must not canonicalize equal to a DN whose single value
  // contains the literal text of two RDNs.
  const auto two = DistinguishedName::parse_or_die("CN=a,O=b");
  const auto one = DistinguishedName::parse_or_die(R"(CN=a\,O=b)");
  EXPECT_FALSE(two.matches(one));
}

}  // namespace
}  // namespace certchain::x509
