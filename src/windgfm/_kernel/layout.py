"""Parameter, state and row layout shared by the compiled and pure kernels."""

P_JG = 0        # SG inertia coefficient (system pu)
P_TG = 1        # governor time constant (s)
P_KG = 2        # governor gain (system pu)
P_BG = 3        # GSC-SG synchronizing coefficient (pu)
P_BM = 4        # machine-link synchronizing coefficient (pu)
P_JWT = 5       # WT inertia coefficient (system pu)
P_CDC = 6       # DC-link capacitance coefficient (system pu)
P_TDC = 7       # DC-filter time constant (s)
P_KDG = 8       # GSC derivative gain
P_KTG = 9       # GSC proportional gain
P_KDM = 10      # MSC derivative gain
P_KTM = 11      # MSC proportional gain
P_OMDEL = 12    # rotor-speed setpoint (pu)
P_BETADEL = 13  # pitch setpoint (deg)
P_KP = 14       # proportional pitch gain (deg/pu)
P_TSERVO = 15   # pitch servo time constant (s)
P_RATE = 16     # pitch rate limit (deg/s)
P_KPLIM = 17    # limiter PI proportional gain
P_KILIM = 18    # limiter PI integral gain
P_PMAX = 19     # MSC power limit (pu)
P_OMMAX = 20    # rotor speed limit (pu)
P_PG0 = 21      # governor power reference (pu)
P_PCONST = 22   # GFL constant injection (pu)
P_PSCALE = 23   # TurbineParams.power_scale(v_w) (pu power per unit Cp)
P_LAMC = 24     # TurbineParams.lam_per_pu(v_w) (lambda per pu rotor speed)
P_CP0 = 25      # 14 calibrated surface coefficients occupy 25..38
P_CPMAX = 39    # surface peak scale
P_BETAMIN = 40
P_BETAMAX = 41
N_PARAMS = 42
# The per-unit setpoints are not parameters: both kernels write the nominal
# GSC frequency and DC voltage as the literal 1.0.

# The closed loop's states in the kernels' order; rho_1 = theta_gsc - theta_g
# and rho_2 = theta_r - theta_msc are smallsignal's angle differences.
STATES = ("rho_1", "omega_g", "P_g", "v_dc", "rho_2", "omega_r", "x_gsc",
          "x_msc", "beta", "i_speed", "i_power")
N_STATES = len(STATES)

# The outputs at a state: P_wt, P_gsc and the GSC frequency w_gsc (pu).  In
# GFL_MPPT mode they are the constant injection twice and omega_g.
OUTPUTS = ("P_wt", "P_gsc", "w_gsc")
N_OUT = len(OUTPUTS)

# A simulate() row: the time, the states, then the outputs at that state.
ROW = ("t", *STATES, *OUTPUTS)

MODE_GFL_MPPT = 0
