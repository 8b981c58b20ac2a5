#include "bist/engine.hpp"

#include "bist/pipeline.hpp"
#include "core/contracts.hpp"

namespace sdrbist::bist {

bist_engine::bist_engine(bist_config config) : config_(std::move(config)) {
    SDRBIST_EXPECTS(config_.fast_samples >= 64);
    SDRBIST_EXPECTS(config_.slow_divider >= 2);
    SDRBIST_EXPECTS(config_.probe_count >= 16);
}

bist_report bist_engine::run() const {
    bist_session session(config_);
    session.run();
    return session.report();
}

} // namespace sdrbist::bist
