#include "core/random.hpp"

#include "core/contracts.hpp"

namespace sdrbist {

double rng::gaussian(double mean, double sigma) {
    SDRBIST_EXPECTS(sigma >= 0.0);
    if (sigma == 0.0)
        return mean; // no draw; normal_distribution requires sigma > 0
    std::normal_distribution<double> dist(mean, sigma);
    return dist(engine_);
}

double rng::uniform(double lo, double hi) {
    SDRBIST_EXPECTS(lo <= hi);
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

int rng::uniform_int(int lo, int hi) {
    SDRBIST_EXPECTS(lo <= hi);
    std::uniform_int_distribution<int> dist(lo, hi);
    return dist(engine_);
}

std::vector<double> rng::uniform_vector(std::size_t n, double lo, double hi) {
    std::vector<double> out(n);
    for (double& x : out)
        x = uniform(lo, hi);
    return out;
}

} // namespace sdrbist
