"""sfcsim: discrete-event NFV data-center simulation with an RL control loop.

Modules:
    trace       one-pass CDR loading into steps, synthetic generation, CSV
    clustering  day-period profiles, K-means, elbow scan
    simcore     servers/VNFs with exponential failure-repair event simulation
    env         gym-style environment (observations, actions, reward)
    autodiff    minimal reverse-mode differentiation over numpy
    policy      MLP policy with factored categorical heads
    ppo         clipped-surrogate PPO with GAE
    policies    baselines and seeded evaluation
    config      YAML experiment configuration
    artifacts   the one CSV writer behind every exported file
    harness     CLI command implementations
"""

__version__ = "0.1.0"
