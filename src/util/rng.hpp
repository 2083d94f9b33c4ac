// Random number generation and the distribution toolbox used by all
// workload models (src/workload/).
//
// All stochastic components in pjsb draw from a single `Rng` instance so
// that every experiment is reproducible from one seed. The distribution
// set covers what the published workload models need: exponential and
// gamma for interarrival times, hyper-gamma (Lublin '99) and hyper-Erlang
// (Jann '97) for runtimes, two-stage log-uniform (Lublin) for job sizes,
// and Zipf for user/application popularity.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace pjsb::util {

/// Deterministic pseudo-random source. Wraps std::mt19937_64 and exposes
/// the named distributions used by the workload models. Cheap to copy;
/// copies evolve independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : engine_(seed) {}

  /// Uniform real in [0, 1).
  double uniform();
  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponential with the given rate (mean = 1/rate).
  double exponential(double rate);
  /// Normal with mean mu and standard deviation sigma.
  double normal(double mu, double sigma);
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);
  /// Gamma with shape alpha and scale beta (mean = alpha * beta).
  double gamma(double alpha, double beta);
  /// Erlang: sum of k exponentials each with the given rate.
  double erlang(int k, double rate);
  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale);

  /// Two-branch hyper-exponential: rate1 with probability p, else rate2.
  double hyper_exponential(double p, double rate1, double rate2);
  /// Two-branch hyper-gamma (Lublin-Feitelson): Gamma(a1,b1) with
  /// probability p, else Gamma(a2,b2).
  double hyper_gamma(double p, double a1, double b1, double a2, double b2);
  /// Mixture of Erlang branches of common order `k` (Jann et al.): branch
  /// i is chosen with probability probs[i] and has rate rates[i].
  double hyper_erlang(std::span<const double> probs,
                      std::span<const double> rates, int k);

  /// Zipf over {1..n} with exponent s >= 0 (s = 0 is uniform). Used for
  /// user / executable popularity when synthesizing traces.
  std::int64_t zipf(std::int64_t n, double s);

  /// Draw an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Weights need not be normalized.
  std::size_t categorical(std::span<const double> weights);

  /// Lublin's two-stage uniform over a log2 scale: with probability prob
  /// the value is drawn from U[lo, med], otherwise from U[med, hi]; the
  /// result is the exponent (still in log2 space).
  double two_stage_uniform(double lo, double med, double hi, double prob);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derive a child seed from a master seed and a stream index, so that
/// parallel experiment arms get decorrelated but reproducible streams.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream);

}  // namespace pjsb::util
