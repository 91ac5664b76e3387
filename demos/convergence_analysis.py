"""
Cross-country beta-convergence on a synthetic debt panel
========================================================

Builds a panel whose per-capita debt mean-reverts with a known speed, then
shows how the slope-surface regression reads that speed back at several
horizons. S < 1 means poorer-in-debt countries catch up with richer ones.
"""

from debtkit import dynamics, regress

# --- 1. a panel with a known convergence speed ----------------------------
# every year: log d(t+1) = alpha + (1 - beta) log d(t) + noise
TRUE_BETA = 0.03
obs = dynamics.synthetic_convergent_panel(
    n_countries=100,
    years=list(range(1970, 2006)),
    alpha=0.05,
    beta=TRUE_BETA,
    sigma=0.1,
    seed=42,
)
print(f"panel: {len(obs)} observations, "
      f"{len(set(obs.country_code))} countries, 1970-2005")

# --- 2. single regression, one horizon ------------------------------------
fit = regress.convergence_regression(obs, "d", t=1970, dt=10)
print(f"\nlog d(1980) on log d(1970):  S = {fit.S:.4f}  "
      f"beta = {fit.beta:.4f}  r^2 = {fit.r_squared:.3f}")
print(f"converges: {fit.converges} (S < 1)")

# --- 3. the whole slope surface -------------------------------------------
surface = regress.slope_surface(obs, "d", t_list=[1970, 1975, 1980],
                                dt_max=15)
print(f"\nsurface: {len(surface.entries)} fits "
      f"({surface.n_skipped} cells skipped)")
print("  t    dt      S     beta    r^2")
for e in surface.entries:
    if e.dt in (1, 5, 10, 15):
        print(f"{e.t}  {e.dt:4d}  {e.S:.3f}  {e.beta:+.4f}  {e.r_squared:.3f}")

# --- 4. why beta drifts with the horizon ----------------------------------
# the yearly slope compounds: S(dt) = (1-beta)^dt, so the implied beta
# (1 - S)/dt is exactly beta at dt=1 and drifts slowly below it after
print("\nhorizon   implied-beta   compounded (1-(1-b)^dt)/dt")
for dt in (1, 5, 10, 15):
    fit = regress.convergence_regression(obs, "d", 1970, dt)
    implied = (1.0 - (1.0 - TRUE_BETA) ** dt) / dt
    print(f"{dt:7d}   {fit.beta:.5f}        {implied:.5f}")

# --- 5. divergence shows up as S > 1 ---------------------------------------
diverging = dynamics.synthetic_convergent_panel(
    n_countries=100, years=[1970, 1980], alpha=0.02, beta=-0.04, sigma=0.1,
    seed=43)
fit = regress.convergence_regression(diverging, "d", 1970, 10)
print(f"\nbeta = -0.04 panel: S = {fit.S:.3f} > 1, "
      f"estimated beta = {fit.beta:+.4f} (divergence)")
