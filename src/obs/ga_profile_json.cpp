#include "obs/ga_profile_json.hpp"

#include <sstream>

#include "util/json.hpp"

namespace gridsched::obs {

std::string render_ga_profiles(const std::vector<core::GaProfile>& profiles) {
  using util::json::number;

  std::ostringstream out;
  out << "{\n";
  out << "  \"invocations\": [\n";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const core::GaProfile& profile = profiles[i];
    out << "    {\"total_wall_ms\": " << number(profile.total_wall_ms)
        << ", \"generations\": [\n";
    for (std::size_t g = 0; g < profile.generations.size(); ++g) {
      const core::GaGenerationProfile& gen = profile.generations[g];
      out << "      {\"wall_ms\": " << number(gen.wall_ms)
          << ", \"evaluations\": " << gen.evaluations
          << ", \"memo_hits\": " << gen.memo_hits
          << ", \"decodes\": " << gen.decodes
          << ", \"best\": " << number(gen.best)
          << ", \"mean\": " << number(gen.mean) << "}"
          << (g + 1 < profile.generations.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < profiles.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace gridsched::obs
