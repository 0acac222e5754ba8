#ifndef MCSM_RELATIONAL_PATTERN_H_
#define MCSM_RELATIONAL_PATTERN_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcsm::relational {

/// SQL LIKE semantics: '%' matches any run of characters (including empty),
/// '_' matches exactly one character. Case sensitive, no escape support.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// A [start, start+length) span of a matched literal segment within a text.
struct Span {
  size_t start;
  size_t length;

  size_t end() const { return start + length; }
  bool operator==(const Span&) const = default;
};

/// \brief A structured search pattern: alternating literal segments and '%'
/// wildcards, with span capture.
///
/// This is the retrieval/masking primitive for the refinement phase
/// (Section 3.4.1): the partial translation formula instantiated on a source
/// row becomes a pattern such as `%kerry`; target instances matching the
/// pattern are retrieved, and Capture() reports exactly which target
/// positions the known (literal) parts occupy so they can be masked out of
/// the alignment (Table 6).
class SearchPattern {
 public:
  struct Segment {
    bool is_wildcard;       ///< true for '%', false for a literal run
    bool min_one = false;   ///< wildcard must consume at least one character
    size_t exact_len = 0;   ///< wildcard must consume exactly this many
                            ///< characters (0 = unconstrained)
    std::string literal;    ///< non-empty iff !is_wildcard
  };

  SearchPattern() = default;
  explicit SearchPattern(std::vector<Segment> segments);

  /// Parses a LIKE-style string where '%' is the only metacharacter.
  static SearchPattern FromLikeString(std::string_view pattern);

  const std::vector<Segment>& segments() const { return segments_; }

  /// True when the pattern is a single '%' (matches everything).
  bool IsUniversal() const;

  /// Whether `text` matches the pattern. Allocates nothing: it runs the
  /// capture's search without recording spans.
  bool Matches(std::string_view text) const;

  /// Returns the spans of the literal segments (in order) under the
  /// *leftmost* feasible binding, or nullopt when `text` does not match.
  /// Leftmost: the first literal binds as early as possible, then the second,
  /// and so on (backtracking only as required for an overall match).
  std::optional<std::vector<Span>> CaptureLiterals(std::string_view text) const;

  /// As above, but appends the spans to `*spans` (no allocation once the
  /// buffer has grown). Returns false, leaving `*spans` as it was, when
  /// `text` does not match.
  bool CaptureLiterals(std::string_view text, std::vector<Span>* spans) const;

  /// Builds a per-character mask over `text`: true = position is *free*
  /// (not covered by any literal segment). nullopt when no match.
  std::optional<std::vector<bool>> FreeMask(std::string_view text) const;

  /// Longest literal segment (empty view when none) — used for index-assisted
  /// candidate filtering.
  std::string_view LongestLiteral() const;

  /// Renders back to a LIKE-style display string.
  std::string ToLikeString() const;

 private:
  /// The leftmost-binding search behind Matches and CaptureLiterals; spans
  /// are recorded (and popped on a failed branch) only when kRecord.
  template <bool kRecord>
  bool TryMatch(std::string_view text, size_t pos, size_t seg,
                std::vector<Span>* spans) const;

  std::vector<Segment> segments_;
};

}  // namespace mcsm::relational

#endif  // MCSM_RELATIONAL_PATTERN_H_
