#include "bist/multistandard.hpp"

#include "campaign/campaign.hpp"
#include "core/contracts.hpp"

namespace sdrbist::bist {

std::vector<bist_report>
run_catalogue(const bist_config& base,
              const std::vector<waveform::standard_preset>& presets) {
    if (presets.empty())
        return {}; // legacy behaviour: zero presets, zero reports

    campaign::campaign_config cc;
    cc.base = base;
    cc.presets = presets;
    cc.faults = {fault_kind::none};
    cc.trials = 1;
    // Legacy semantics: every preset runs with the base configuration's
    // seeds (the serial loop never reseeded), so results stay bit-identical
    // with the pre-campaign implementation.
    cc.reseed = campaign::reseed_policy::off;

    const campaign::campaign_runner runner(std::move(cc));
    const auto result = runner.run();

    std::vector<bist_report> reports;
    reports.reserve(result.results.size());
    // Grid order with a single fault and trial *is* preset order, which
    // makes the report ordering deterministic by construction.
    for (const auto& r : result.results) {
        if (r.engine_error)
            throw contract_violation(r.sc.preset_name + ": " + r.error);
        reports.push_back(r.report);
    }
    return reports;
}

} // namespace sdrbist::bist
